//! The paper-figure benches (`benches/`: Fig. 1–3 and the ablations) and
//! the timing helper they run on. Each bench is a plain `main`
//! (`harness = false`): `cargo bench -p adept-bench --bench fig2_storage`.
//! Everything else is measured by the repo benchmark (`benchmark/`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `routine` on inputs from `setup` — one warm-up run, then
/// `samples` timed ones, `setup` never timed — and prints `label` with
/// the mean and fastest run. Returns the mean.
pub fn time<I, O>(
    label: &str,
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Duration {
    black_box(routine(setup()));
    let runs: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            t.elapsed()
        })
        .collect();
    let mean = runs.iter().sum::<Duration>() / runs.len() as u32;
    let min = runs.iter().min().copied().unwrap_or_default();
    println!(
        "{label:<56} mean {:>12?} min {:>12?} ({} samples)",
        mean,
        min,
        runs.len()
    );
    mean
}

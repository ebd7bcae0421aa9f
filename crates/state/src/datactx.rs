//! Per-instance data contexts: current values of data elements.
//!
//! Every write an activity makes is recorded once, in the `Completed` event
//! of the history that completed it ([`Event::Completed`]); a data context
//! holds only what those writes leave, folded in order, the last write of
//! an element winning. It is a cache of the history, like the analysed
//! schema of a biased instance: nothing encodes it, and a decoder folds it
//! again from the history it decodes.
//!
//! The current values are an [`IdMap`], one vector sorted by data id that
//! holds only non-`Null` values — a `Null` write clears the element — so
//! two contexts that read the same compare the same.

use crate::history::Event;
use adept_model::{DataId, IdMap, ModelError, ProcessSchema, Value};

/// The data context of one process instance: the current value of every
/// written data element. Where each value came from is the history's to
/// say.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataContext {
    values: IdMap<DataId, Value>,
}

impl DataContext {
    /// An empty context (all data elements `Null`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a data element (`Null` if never written).
    pub fn value(&self, d: DataId) -> &Value {
        self.values.get(&d).unwrap_or(&Value::Null)
    }

    /// Whether the element currently holds a non-`Null` value.
    pub fn is_written(&self, d: DataId) -> bool {
        !self.value(d).is_null()
    }

    /// Validates a prospective write without applying it: the data
    /// element must exist and the value must match its declared type.
    /// [`DataContext::write`] enforces exactly this check, so callers
    /// that need all-or-nothing write batches (the executor validates
    /// a completion's full write set before mutating anything) stay in
    /// lockstep with it by construction.
    pub fn validate_write(
        schema: &ProcessSchema,
        data: DataId,
        value: &Value,
    ) -> Result<(), ModelError> {
        let decl = schema.data_element(data)?;
        if let Some(vt) = value.value_type() {
            if vt != decl.ty {
                return Err(ModelError::TypeMismatch {
                    data,
                    expected: decl.ty.to_string(),
                    got: value.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Writes a value, enforcing the declared type of the element. A
    /// `Null` write clears the current value.
    pub fn write(
        &mut self,
        schema: &ProcessSchema,
        data: DataId,
        value: Value,
    ) -> Result<(), ModelError> {
        Self::validate_write(schema, data, &value)?;
        self.set(data, value);
        Ok(())
    }

    /// Applies the writes of the `Completed` events among `events`, in
    /// order, unchecked: `events` are a history (or its tail) whose writes
    /// were validated when they were made, or when they were decoded.
    pub(crate) fn fold(&mut self, events: &[Event]) {
        for event in events {
            if let Event::Completed { writes, .. } = event {
                for (d, v) in writes {
                    self.set(*d, v.clone());
                }
            }
        }
    }

    fn set(&mut self, data: DataId, value: Value) {
        if value.is_null() {
            self.values.remove(&data);
        } else {
            self.values.insert(data, value);
        }
    }

    /// All current non-null values, in data id order.
    pub fn values(&self) -> impl Iterator<Item = (DataId, &Value)> {
        self.values.iter().map(|(d, v)| (*d, v))
    }

    /// Approximate deep size in bytes (for storage accounting): the
    /// context, its value buffer and the strings it holds.
    pub fn approx_size(&self) -> usize {
        let text = |v: &Value| match v {
            Value::Str(st) => st.capacity(),
            _ => 0,
        };
        std::mem::size_of::<Self>()
            + self.values.heap_size()
            + self.values.values().map(text).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{NodeId, SchemaBuilder, ValueType};

    fn schema_with_data() -> (ProcessSchema, NodeId, DataId) {
        let mut b = SchemaBuilder::new("d");
        let d = b.data("amount", ValueType::Int);
        let a = b.activity("a");
        b.write(a, d);
        (b.build().unwrap(), a, d)
    }

    #[test]
    fn write_and_read_back() {
        let (s, _, d) = schema_with_data();
        let mut ctx = DataContext::new();
        assert!(!ctx.is_written(d));
        ctx.write(&s, d, Value::Int(42)).unwrap();
        assert_eq!(ctx.value(d), &Value::Int(42));
        assert!(ctx.is_written(d));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (s, _, d) = schema_with_data();
        let mut ctx = DataContext::new();
        let err = ctx.write(&s, d, Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
        assert!(!ctx.is_written(d));
    }

    #[test]
    fn the_last_write_wins() {
        let (s, _, d) = schema_with_data();
        let mut ctx = DataContext::new();
        ctx.write(&s, d, Value::Int(1)).unwrap();
        ctx.write(&s, d, Value::Int(2)).unwrap();
        assert_eq!(ctx.value(d), &Value::Int(2));
        assert_eq!(ctx.values().count(), 1);
    }

    #[test]
    fn a_null_write_leaves_no_value() {
        let (s, _, d) = schema_with_data();
        let mut ctx = DataContext::new();
        ctx.write(&s, d, Value::Null).unwrap();
        assert!(!ctx.is_written(d));
        assert_eq!(ctx, DataContext::new());
        ctx.write(&s, d, Value::Int(7)).unwrap();
        ctx.write(&s, d, Value::Null).unwrap();
        assert_eq!(ctx.value(d), &Value::Null);
        assert_eq!(ctx, DataContext::new());
    }

    #[test]
    fn a_fold_is_the_writes_in_order() {
        let (s, a, d) = schema_with_data();
        let completed = |v: Value| Event::Completed {
            node: a,
            writes: vec![(d, v)],
        };
        let events = [
            completed(Value::Int(1)),
            Event::Started {
                node: a,
                reads: vec![d],
            },
            completed(Value::Null),
            completed(Value::Int(3)),
        ];
        let mut folded = DataContext::new();
        folded.fold(&events);
        let mut written = DataContext::new();
        for v in [Value::Int(1), Value::Null, Value::Int(3)] {
            written.write(&s, d, v).unwrap();
        }
        assert_eq!(folded, written);
        folded.fold(&events[..3]);
        assert_eq!(folded, DataContext::new());
    }

    #[test]
    fn unknown_data_rejected() {
        let (s, _, _) = schema_with_data();
        let mut ctx = DataContext::new();
        assert!(ctx.write(&s, DataId(99), Value::Int(1)).is_err());
    }
}

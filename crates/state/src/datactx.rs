//! Per-instance data contexts: current values of data elements.
//!
//! The current values are an [`IdMap`], one vector sorted by data id that
//! holds only non-`Null` values — a `Null` write is logged but leaves the
//! element unwritten — so two contexts that read the same compare and
//! encode the same.

use adept_model::{DataId, IdMap, ModelError, NodeId, ProcessSchema, Value};
use serde::{Deserialize, Serialize};

/// One logged write to a data element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteRecord {
    /// The writing node.
    pub node: NodeId,
    /// The data element.
    pub data: DataId,
    /// The written value.
    pub value: Value,
}

/// The data context of one process instance: current values plus the
/// complete write log (ADEPT keeps write histories so that loop iterations
/// and change operations can reason about data provenance).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DataContext {
    values: IdMap<DataId, Value>,
    log: Vec<WriteRecord>,
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

    /// Records a write, enforcing the declared type of the element. A
    /// `Null` write is logged and clears the current value.
    pub fn write(
        &mut self,
        schema: &ProcessSchema,
        node: NodeId,
        data: DataId,
        value: Value,
    ) -> Result<(), ModelError> {
        Self::validate_write(schema, data, &value)?;
        if value.is_null() {
            self.values.remove(&data);
        } else {
            self.values.insert(data, value.clone());
        }
        self.log.push(WriteRecord { node, data, value });
        Ok(())
    }

    /// The complete write log, in write order.
    pub fn log(&self) -> &[WriteRecord] {
        &self.log
    }

    /// All current non-null values, in data id order.
    pub fn values(&self) -> impl Iterator<Item = (DataId, &Value)> {
        self.values.iter().map(|(d, v)| (*d, v))
    }

    /// Approximate deep size in bytes (for storage accounting): the
    /// context, its value and log buffers, and the strings they hold.
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let text = |v: &Value| match v {
            Value::Str(st) => st.capacity(),
            _ => 0,
        };
        size_of::<Self>()
            + self.values.heap_size()
            + self.values.values().map(text).sum::<usize>()
            + self.log.capacity() * size_of::<WriteRecord>()
            + self.log.iter().map(|r| text(&r.value)).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{SchemaBuilder, ValueType};

    fn schema_with_data() -> (ProcessSchema, NodeId, DataId) {
        let mut b = SchemaBuilder::new("d");
        let d = b.data("amount", ValueType::Int);
        let a = b.activity("a");
        b.write(a, d);
        (b.build().unwrap(), a, d)
    }

    #[test]
    fn write_and_read_back() {
        let (s, a, d) = schema_with_data();
        let mut ctx = DataContext::new();
        assert!(!ctx.is_written(d));
        ctx.write(&s, a, d, Value::Int(42)).unwrap();
        assert_eq!(ctx.value(d), &Value::Int(42));
        assert!(ctx.is_written(d));
        assert_eq!(ctx.log().len(), 1);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (s, a, d) = schema_with_data();
        let mut ctx = DataContext::new();
        let err = ctx.write(&s, a, d, Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
        assert!(!ctx.is_written(d));
    }

    #[test]
    fn overwrites_keep_log() {
        let (s, a, d) = schema_with_data();
        let mut ctx = DataContext::new();
        ctx.write(&s, a, d, Value::Int(1)).unwrap();
        ctx.write(&s, a, d, Value::Int(2)).unwrap();
        assert_eq!(ctx.value(d), &Value::Int(2));
        assert_eq!(ctx.log().len(), 2);
    }

    #[test]
    fn a_null_write_is_logged_but_leaves_no_value() {
        let (s, a, d) = schema_with_data();
        let mut ctx = DataContext::new();
        ctx.write(&s, a, d, Value::Null).unwrap();
        assert!(!ctx.is_written(d));
        assert_eq!(ctx.values().count(), 0);
        assert_eq!(
            ctx,
            DataContext {
                log: ctx.log.clone(),
                ..DataContext::new()
            }
        );
        ctx.write(&s, a, d, Value::Int(7)).unwrap();
        ctx.write(&s, a, d, Value::Null).unwrap();
        assert_eq!(ctx.value(d), &Value::Null);
        assert_eq!(ctx.values().count(), 0);
        assert_eq!(ctx.log().len(), 3);
        let mut out = serde::Writer::compact();
        ctx.serialize(&mut out);
        assert!(out.finish().starts_with("{\"values\":[],"));
    }

    #[test]
    fn unknown_data_rejected() {
        let (s, a, _) = schema_with_data();
        let mut ctx = DataContext::new();
        assert!(ctx.write(&s, a, DataId(99), Value::Int(1)).is_err());
    }
}

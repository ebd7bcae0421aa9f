//! Data-flow model: data elements, values and read/write data edges.

use crate::ids::{DataId, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a data element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
        })
    }
}

/// A runtime value of a data element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absence of a value (unwritten data element).
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The [`ValueType`] this value conforms to, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// Whether this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Partial comparison between values of the same kind; `None` across
    /// kinds or when either side is `Null`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
            _ => None,
        }
    }

    /// Approximate heap + inline size in bytes, used by the storage layer's
    /// memory accounting (paper Fig. 2 experiments).
    pub fn approx_size(&self) -> usize {
        std::mem::size_of::<Value>()
            + match self {
                Value::Str(s) => s.capacity(),
                _ => 0,
            }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A process data element (a typed variable of the schema).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataElement {
    /// Identifier, unique within the owning schema.
    pub id: DataId,
    /// Display name, shared by every copy of the schema like a node's name.
    pub name: Arc<str>,
    /// Declared type.
    pub ty: ValueType,
}

impl DataElement {
    /// Creates a data element.
    pub fn new(id: DataId, name: impl Into<Arc<str>>, ty: ValueType) -> Self {
        Self {
            id,
            name: name.into(),
            ty,
        }
    }
}

impl fmt::Display for DataElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}: {}]", self.id, self.name, self.ty)
    }
}

/// Read or write access of an activity to a data element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// The activity reads the element when it starts.
    Read,
    /// The activity writes the element when it completes.
    Write,
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessMode::Read => "read",
            AccessMode::Write => "write",
        })
    }
}

/// A data edge connecting a node to a data element.
///
/// Mandatory read edges are input parameters that *must* be supplied —
/// the data-flow verifier proves that a write precedes them on every path.
/// Optional reads tolerate `Null`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataEdge {
    /// The accessing node.
    pub node: NodeId,
    /// The accessed data element.
    pub data: DataId,
    /// Read or write.
    pub mode: AccessMode,
    /// For reads: whether the parameter may be unsupplied (`Null`).
    pub optional: bool,
}

impl DataEdge {
    /// Creates a mandatory read edge.
    pub fn read(node: NodeId, data: DataId) -> Self {
        Self {
            node,
            data,
            mode: AccessMode::Read,
            optional: false,
        }
    }

    /// Creates an optional read edge.
    pub fn optional_read(node: NodeId, data: DataId) -> Self {
        Self {
            node,
            data,
            mode: AccessMode::Read,
            optional: true,
        }
    }

    /// Creates a write edge.
    pub fn write(node: NodeId, data: DataId) -> Self {
        Self {
            node,
            data,
            mode: AccessMode::Write,
            optional: false,
        }
    }
}

impl fmt::Display for DataEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}s {}", self.node, self.mode, self.data)?;
        if self.optional {
            f.write_str(" (optional)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types() {
        assert_eq!(Value::Bool(true).value_type(), Some(ValueType::Bool));
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::Float(1.0).value_type(), Some(ValueType::Float));
        assert_eq!(Value::from("x").value_type(), Some(ValueType::Str));
        assert_eq!(Value::Null.value_type(), None);
    }

    #[test]
    fn value_comparison_same_kind_only() {
        assert_eq!(
            Value::Int(1).partial_cmp_value(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(1).partial_cmp_value(&Value::Float(2.0)), None);
        assert_eq!(Value::Null.partial_cmp_value(&Value::Null), None);
    }

    #[test]
    fn string_values_account_for_heap() {
        let v = Value::Str("hello world".into());
        assert!(v.approx_size() >= std::mem::size_of::<Value>() + 11);
        assert_eq!(Value::Int(1).approx_size(), std::mem::size_of::<Value>());
    }

    #[test]
    fn data_edge_constructors() {
        let r = DataEdge::read(NodeId(1), DataId(2));
        assert_eq!(r.mode, AccessMode::Read);
        assert!(!r.optional);
        let o = DataEdge::optional_read(NodeId(1), DataId(2));
        assert!(o.optional);
        let w = DataEdge::write(NodeId(1), DataId(2));
        assert_eq!(w.mode, AccessMode::Write);
    }
}

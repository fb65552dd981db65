//! Attribute types (DfAnalyzer's data model).
//!
//! DfAnalyzer organizes provenance around *dataflows* composed of
//! *transformations*, each consuming and producing *datasets* with typed
//! attributes. The store needs only the types, inferred per value.

use prov_model::AttrValue;
use serde::{Deserialize, Serialize};

/// Attribute types supported by the columnar store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrType {
    /// 64-bit float (also accepts integers).
    Numeric,
    /// UTF-8 text.
    Text,
    /// Anything else (stored but not indexed).
    Other,
}

impl AttrType {
    /// Infers the column type of a value.
    pub fn of(value: &AttrValue) -> AttrType {
        match value {
            AttrValue::Int(_) | AttrValue::Float(_) | AttrValue::Bool(_) => AttrType::Numeric,
            AttrValue::Str(_) => AttrType::Text,
            _ => AttrType::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_type_inference() {
        assert_eq!(AttrType::of(&AttrValue::Int(1)), AttrType::Numeric);
        assert_eq!(AttrType::of(&AttrValue::Float(0.5)), AttrType::Numeric);
        assert_eq!(AttrType::of(&AttrValue::Bool(true)), AttrType::Numeric);
        assert_eq!(AttrType::of(&AttrValue::Str("x".into())), AttrType::Text);
        assert_eq!(AttrType::of(&AttrValue::List(vec![])), AttrType::Other);
    }
}

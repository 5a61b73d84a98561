//! Building and printing the benchmark's JSON output on top of the data
//! tree the (vendored) serde crate provides.

pub use serde::Value;

/// Types the report is made of.
pub trait ToJson {
    /// This value as a JSON tree.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

macro_rules! via_serde {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                serde::Serialize::to_value(self)
            }
        }
    )*};
}
via_serde!(bool, u64, usize, f64, String, &str, Vec<String>);

/// `{"k": v, ...}` in the given key order.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Value::Map(vec![$(($key.to_string(), $crate::json::ToJson::to_json(&$value))),*])
    };
}

/// Sets (or appends) `key` in a JSON object.
pub fn set(object: &mut Value, key: &str, value: Value) {
    if let Value::Map(entries) = object {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => entries.push((key.to_owned(), value)),
        }
    }
}

struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text.
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Tree(value)).expect("JSON trees render")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_key_order() {
        let mut v = obj! { "b" => 1u64, "a" => "x" };
        set(&mut v, "c", obj! { "f" => 1.5f64 });
        assert_eq!(render(&v), r#"{"b":1,"a":"x","c":{"f":1.5}}"#);
    }
}

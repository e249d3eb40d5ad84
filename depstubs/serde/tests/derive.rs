//! One test per `#[serde(...)]` attribute the derive stand-in supports.

use serde::__private::Value;
use serde::{Deserialize, Serialize};

fn obj(entries: &[(&str, Value)]) -> Value {
    Value::Object(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum Cause {
    Scheduled,
    Battery,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase")]
enum Event {
    Death { slot: u64, cause: Cause },
    Reconnected { slot: u64, after_slots: u64 },
}

#[test]
fn rename_all_lowercases_unit_variants() {
    assert_eq!(Cause::Battery.serialize(), Ok(text("battery")));
    assert_eq!(Cause::deserialize(&text("scheduled")), Ok(Cause::Scheduled));
    let err = Cause::deserialize(&text("Scheduled")).unwrap_err();
    assert_eq!(err.to_string(), "unknown Cause variant 'Scheduled'");
}

#[test]
fn tag_carries_the_variant_name_inside_the_object() {
    let death = Event::Death {
        slot: 5,
        cause: Cause::Battery,
    };
    let v = obj(&[
        ("kind", text("death")),
        ("slot", num(5.0)),
        ("cause", text("battery")),
    ]);
    assert_eq!(death.serialize(), Ok(v.clone()));
    assert_eq!(Event::deserialize(&v), Ok(death));
    let healed = obj(&[
        ("kind", text("reconnected")),
        ("slot", num(9.0)),
        ("after_slots", num(3.0)),
    ]);
    assert!(matches!(
        Event::deserialize(&healed),
        Ok(Event::Reconnected { after_slots: 3, .. })
    ));
    let unknown = obj(&[("kind", text("birth")), ("slot", num(1.0))]);
    assert_eq!(
        Event::deserialize(&unknown).unwrap_err().to_string(),
        "unknown Event kind 'birth'"
    );
}

fn seven() -> Vec<u32> {
    vec![7]
}

/// A `with` module: the value travels as a decimal string.
mod decimal {
    use serde::__private::{Error, Value};

    pub fn serialize(x: &u64) -> Result<Value, Error> {
        Ok(Value::String(x.to_string()))
    }

    pub fn deserialize(v: &Value) -> Result<u64, Error> {
        v.as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::custom("expected a decimal string"))
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "record")]
struct Record {
    #[serde(rename = "faults")]
    fault_spec: String,
    #[serde(default = "seven")]
    stages: Vec<u32>,
    #[serde(with = "decimal")]
    seed: u64,
}

#[test]
fn rename_changes_the_key() {
    let r = Record {
        fault_spec: "kill=1@2".into(),
        stages: vec![],
        seed: 1,
    };
    let v = r.serialize().unwrap();
    assert_eq!(v.get("faults"), Some(&text("kill=1@2")));
    assert!(v.get("fault_spec").is_none());
    assert_eq!(Record::deserialize(&v), Ok(r));
}

#[test]
fn field_default_covers_missing_and_null() {
    for stages in [None, Some(Value::Null)] {
        let mut entries = vec![("faults", text("")), ("seed", text("3"))];
        entries.extend(stages.map(|s| ("stages", s)));
        assert_eq!(Record::deserialize(&obj(&entries)).unwrap().stages, vec![7]);
    }
}

#[test]
fn with_module_replaces_the_field_codec() {
    let wide = u64::MAX - 1;
    let r = Record {
        fault_spec: String::new(),
        stages: vec![1],
        seed: wide,
    };
    let v = r.serialize().unwrap();
    assert_eq!(v.get("seed"), Some(&text(&wide.to_string())));
    assert_eq!(Record::deserialize(&v).unwrap().seed, wide);
    let bad = obj(&[("faults", text("")), ("seed", num(3.0))]);
    assert_eq!(
        Record::deserialize(&bad).unwrap_err().to_string(),
        "field `seed`: expected a decimal string"
    );
}

#[test]
fn deny_unknown_fields_names_the_key_and_expecting_names_the_container() {
    let typo = obj(&[
        ("faults", text("")),
        ("seed", text("1")),
        ("sede", text("1")),
    ]);
    assert_eq!(
        Record::deserialize(&typo).unwrap_err().to_string(),
        "unknown record key 'sede'"
    );
    assert_eq!(
        Record::deserialize(&Value::Array(vec![]))
            .unwrap_err()
            .to_string(),
        "record must be a JSON object"
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Knobs {
    minutes: u64,
    label: String,
    inner: Option<Record>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            minutes: 10,
            label: "paper".into(),
            inner: None,
        }
    }
}

#[test]
fn container_default_fills_missing_and_null_fields() {
    let v = obj(&[("minutes", num(4.0)), ("label", Value::Null)]);
    assert_eq!(
        Knobs::deserialize(&v),
        Ok(Knobs {
            minutes: 4,
            ..Knobs::default()
        })
    );
    // A nested container's own error passes through its field as is.
    let nested = obj(&[("inner", obj(&[("x", num(1.0))]))]);
    assert_eq!(
        Knobs::deserialize(&nested).unwrap_err().to_string(),
        "unknown record key 'x'"
    );
}

#[test]
fn serialize_errors_name_their_field() {
    let k = Knobs {
        minutes: u64::MAX,
        ..Knobs::default()
    };
    let err = k.serialize().unwrap_err().to_string();
    assert!(err.starts_with("field `minutes`: integer"), "{err}");
}

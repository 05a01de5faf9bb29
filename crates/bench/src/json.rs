//! The one JSON writer behind every `BENCH_*.json` report.
//!
//! Fields keep the order they are added in, each float carries its own
//! [`Precision`], and `None` or a non-finite float prints as `null`.
//! [`Json::to_report`] puts one top-level field per line and one item per
//! line in an array (indented two spaces per level); everything else
//! stays inline.
//!
//! ```
//! use gssl_bench::json::{Json, Precision::Fixed};
//! let row = Json::object()
//!     .field("n", 256usize)
//!     .field("seconds", (0.25, Fixed(3)))
//!     .field("iterations", None::<usize>);
//! let report = Json::object().field("rows", vec![row]);
//! assert_eq!(
//!     report.to_report(),
//!     "{\n\"rows\": [\n  {\"n\": 256, \"seconds\": 0.250, \"iterations\": null}\n]\n}\n"
//! );
//! ```

/// How a float field is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// `d` digits after the point (`{:.d}`).
    Fixed(usize),
    /// Scientific with `d` digits after the point (`{:.de}`).
    Exp(usize),
    /// The shortest form that reads back exactly (`{}`).
    Shortest,
    /// The shortest scientific form (`{:e}`).
    ShortestExp,
}

/// One JSON value; objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float and its print precision.
    Num(f64, Precision),
    /// A string, written as is between quotes.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with ordered fields.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends `key: value` to an object (a no-op on any other value).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Object(fields) = &mut self {
            fields.push((key.to_owned(), value.into()));
        }
        self
    }

    /// The whole report and a final newline; an object puts one field
    /// per line.
    pub fn to_report(&self) -> String {
        match self {
            Json::Object(fields) => {
                let lines: Vec<String> = fields
                    .iter()
                    .map(|(key, value)| format!("\"{key}\": {}", value.render(0)))
                    .collect();
                format!("{{\n{}\n}}\n", lines.join(",\n"))
            }
            other => format!("{}\n", other.render(0)),
        }
    }

    /// The value inline, except that an array at nesting `depth` puts
    /// each item on its own line at indent `2 * (depth + 1)`.
    fn render(&self, depth: usize) -> String {
        match self {
            Json::Null => "null".to_owned(),
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            Json::Num(x, _) if !x.is_finite() => "null".to_owned(),
            Json::Num(x, Precision::Fixed(d)) => format!("{x:.d$}"),
            Json::Num(x, Precision::Exp(d)) => format!("{x:.d$e}"),
            Json::Num(x, Precision::Shortest) => format!("{x}"),
            Json::Num(x, Precision::ShortestExp) => format!("{x:e}"),
            Json::Str(s) => format!("\"{s}\""),
            Json::Array(items) => {
                let indent = "  ".repeat(depth + 1);
                let lines: Vec<String> = items
                    .iter()
                    .map(|item| format!("{indent}{}", item.render(depth + 1)))
                    .collect();
                format!("[\n{}\n{}]", lines.join(",\n"), "  ".repeat(depth))
            }
            Json::Object(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(key, value)| format!("\"{key}\": {}", value.render(depth)))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as u64)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i)
    }
}

impl From<(f64, Precision)> for Json {
    fn from((x, precision): (f64, Precision)) -> Json {
        Json::Num(x, precision)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Precision::*;

    #[test]
    fn precisions_nulls_and_nesting() {
        let sample = |w: usize| Json::object().field("workers", w);
        let stage = Json::object()
            .field("fixed", (1.0 / 3.0, Fixed(6)))
            .field("exp", (4.41e-15, Exp(3)))
            .field("shortest", (1000.0, Shortest))
            .field("tol", (1e-8, ShortestExp))
            .field("nan", (f64::NAN, Fixed(9)))
            .field("none", None::<bool>)
            .field("samples", vec![sample(1), sample(2)]);
        let report = Json::object()
            .field("policy", Json::object().field("max_batch", 8usize))
            .field("stages", vec![stage]);
        assert_eq!(
            report.to_report(),
            "{\n\"policy\": {\"max_batch\": 8},\n\"stages\": [\n  {\"fixed\": 0.333333, \
             \"exp\": 4.410e-15, \"shortest\": 1000, \"tol\": 1e-8, \"nan\": null, \
             \"none\": null, \"samples\": [\n    {\"workers\": 1},\n    {\"workers\": 2}\n  ]}\n\
             ]\n}\n"
        );
    }
}

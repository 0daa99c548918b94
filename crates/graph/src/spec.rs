//! One registry type and one spec grammar for everything addressed by name:
//! compatibility estimators (`DCEr(r=10,l=5,lambda=10)`), propagation backends
//! (`linbp`) and graph builders (`Knn(k=10,sym=mutual)`).
//!
//! A [`Registry`] is a static table of [`Entry`]s looked up by case-insensitive
//! name or alias. A spec string is a base name, optionally followed by a
//! parenthesized `key=value` list. [`Registry::by_spec`] is its only parser: it
//! splits the spec and applies the pairs, through [`Registry::set`], on top
//! of a clone of the caller's defaults. Propagators are addressed by name only
//! ([`Registry::build`]).
//!
//! Each options type keeps one [`Key`] table ([`SpecOptions::KEYS`]), the only
//! place a key is mapped to a field. Spec strings, CLI flags, serve request
//! fields and manifest keys all set options through it
//! ([`Registry::options`]), so a key means the same thing on every surface and
//! a bad value reads the same everywhere.

use std::str::FromStr;

/// One registered method: canonical lowercase name, accepted aliases, a one-line
/// description for help output, and a constructor honoring the options `O`.
pub struct Entry<B: ?Sized + 'static, O: 'static> {
    /// Canonical lowercase name (what [`Registry::canonical`] returns).
    pub name: &'static str,
    /// Alternative lowercase names accepted wherever the name is.
    pub aliases: &'static [&'static str],
    /// One-line human-readable description.
    pub description: &'static str,
    /// Build the method with the given options.
    pub build: fn(&O) -> Box<B>,
}

/// A static table of [`Entry`]s building `Box<B>` from options `O`.
pub struct Registry<B: ?Sized + 'static, O: 'static> {
    kind: &'static str,
    noun: &'static str,
    entries: &'static [Entry<B, O>],
}

impl<B: ?Sized, O> Registry<B, O> {
    /// A registry over `entries`. `kind` names the family in lookup errors
    /// (`"estimation"`: "unknown estimation method …"); `noun` names it in spec
    /// errors (`"estimator"`: "estimator parameter 'r' …").
    pub const fn new(
        kind: &'static str,
        noun: &'static str,
        entries: &'static [Entry<B, O>],
    ) -> Self {
        Registry {
            kind,
            noun,
            entries,
        }
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &'static [Entry<B, O>] {
        self.entries
    }

    /// The canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Resolve a name or alias (trimmed, ASCII case-insensitive, no parameter
    /// list) to its canonical name.
    pub fn canonical(&self, name: &str) -> Option<&'static str> {
        self.find(name).map(|e| e.name)
    }

    /// The entry for a name or alias, or the registry's one unknown-name error.
    pub fn entry(&self, name: &str) -> Result<&'static Entry<B, O>, String> {
        self.find(name).ok_or_else(|| {
            format!(
                "unknown {} method '{name}' (expected one of {})",
                self.kind,
                self.names().join(", ")
            )
        })
    }

    fn find(&self, name: &str) -> Option<&'static Entry<B, O>> {
        let lowered = name.trim().to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.name == lowered || e.aliases.contains(&lowered.as_str()))
    }

    /// Build the method registered under a name or alias.
    pub fn build(&self, name: &str, opts: &O) -> Result<Box<B>, String> {
        Ok((self.entry(name)?.build)(opts))
    }

    /// Build every registered method, in registration order.
    pub fn build_all(&self, opts: &O) -> Vec<Box<B>> {
        self.entries.iter().map(|e| (e.build)(opts)).collect()
    }
}

impl<B: ?Sized, O: SpecOptions> Registry<B, O> {
    /// Apply one `key=value` pair, rendering a rejection as the registry's one
    /// error text (`"estimator parameter 'variant' has invalid …"`).
    pub fn set(&self, opts: &mut O, key: &str, value: &str) -> Result<(), String> {
        opts.set(key, value)
            .map_err(|e| e.render::<O>(self.noun, key, value))
    }

    /// Options from a front-end's plain keys: `opts`, then every key of
    /// [`SpecOptions::KEYS`] for which `value_of` finds a value under the key's
    /// [`name`](Key::name), applied through [`set`](Self::set). `value_of`
    /// checks the front-end's native value type against the key's [`Kind`]
    /// and hands the value over as text.
    pub fn options(
        &self,
        mut opts: O,
        mut value_of: impl FnMut(&Key<O>) -> Result<Option<String>, String>,
    ) -> Result<O, String> {
        for key in O::KEYS {
            if let Some(value) = value_of(key)? {
                self.set(&mut opts, key.name, &value)?;
            }
        }
        Ok(opts)
    }

    /// Build from a spec string (`"dcer"`, `"DCEr(r=7,l=3)"`): the spec's keys
    /// are applied on top of a clone of `defaults`, so unset keys keep them.
    pub fn by_spec(&self, spec: &str, defaults: &O) -> Result<Box<B>, String> {
        let (base, pairs) = split(spec, self.noun)?;
        let mut opts = defaults.clone();
        for (key, value) in pairs {
            self.set(&mut opts, &key, value)?;
        }
        self.build(base, &opts)
    }
}

/// The type of value a [`Key`] takes. Front-ends with typed values (JSON, TOML)
/// check it before handing the value to [`SpecOptions::set`] as text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A non-negative integer no larger than `max`: the most work one value
    /// may ask for (restarts, path length, iterations, ...).
    Count {
        /// The largest accepted value.
        max: usize,
    },
    /// A real number.
    Number,
    /// One of the listed words.
    Choice(&'static [&'static str]),
    /// `true` or `false`.
    Flag,
}

/// One settable key of the options type `O`: the only place the key is mapped
/// to a field.
pub struct Key<O: 'static> {
    /// The key's name: also the CLI flag (`--lmax`), the serve request field
    /// and the manifest key.
    pub name: &'static str,
    /// Further spellings a spec string accepts (`l` for `lmax`).
    pub aliases: &'static [&'static str],
    /// The type of value the key takes.
    pub kind: Kind,
    /// One-line description for usage output.
    pub help: &'static str,
    /// Parse `value` into the key's field.
    pub set: fn(&mut O, &str) -> Result<(), ParamError>,
}

/// Options a spec string's `key=value` pairs can set, through one key table.
pub trait SpecOptions: Clone + 'static {
    /// Every key these options accept, in the order errors and usage list them.
    const KEYS: &'static [Key<Self>];

    /// Apply one pair through [`KEYS`](Self::KEYS); `key` arrives trimmed and
    /// ASCII-lowercased, `value` trimmed. The row's own parser speaks first; a
    /// count it accepts is then held to the row's [`Kind::Count`] maximum.
    fn set(&mut self, key: &str, value: &str) -> Result<(), ParamError> {
        let row = Self::KEYS
            .iter()
            .find(|row| row.name == key || row.aliases.contains(&key))
            .ok_or(ParamError::UnknownKey)?;
        let mut parsed = self.clone();
        (row.set)(&mut parsed, value)?;
        if let Kind::Count { max } = row.kind {
            if value.parse::<usize>().is_ok_and(|count| count > max) {
                return Err(ParamError::AboveMax(max));
            }
        }
        *self = parsed;
        Ok(())
    }
}

/// Why [`SpecOptions::set`] rejected a pair; [`Registry::set`] renders it
/// with the registry's noun, key and value.
#[derive(Debug)]
pub enum ParamError {
    /// The key is not in the options' key table.
    UnknownKey,
    /// The value is not a valid `.0`; `.1` optionally lists what is accepted.
    Invalid(&'static str, Option<&'static str>),
    /// A complete message from the value type's own parser.
    Message(String),
    /// A count above its key's [`Kind::Count`] maximum.
    AboveMax(usize),
}

impl ParamError {
    fn render<O: SpecOptions>(self, noun: &str, key: &str, value: &str) -> String {
        match self {
            ParamError::UnknownKey => {
                let keys: Vec<String> = O::KEYS
                    .iter()
                    .map(|row| match row.aliases {
                        [] => row.name.to_string(),
                        aliases => format!("{} ({})", row.name, aliases.join(", ")),
                    })
                    .collect();
                let keys = keys.join(", ");
                format!("unknown {noun} parameter '{key}' (expected one of {keys})")
            }
            ParamError::Invalid(what, expected) => {
                let hint = expected.map_or(String::new(), |e| format!(" (expected {e})"));
                format!("{noun} parameter '{key}' has invalid {what} '{value}'{hint}")
            }
            ParamError::Message(message) => message,
            ParamError::AboveMax(max) => {
                format!("{noun} parameter '{key}' has count '{value}' above the maximum {max}")
            }
        }
    }
}

/// Parse a spec value, reporting failure as an invalid `what`.
pub fn parse<T: FromStr>(value: &str, what: &'static str) -> Result<T, ParamError> {
    value.parse().map_err(|_| ParamError::Invalid(what, None))
}

/// Store a parsed value in an options field: the body of most [`Key::set`]s.
pub fn put<T>(field: &mut Option<T>, value: Result<T, ParamError>) -> Result<(), ParamError> {
    *field = Some(value?);
    Ok(())
}

/// Parse a finite, non-negative real number (`lambda`, `tolerance`, `damping`).
pub fn parse_non_negative(value: &str) -> Result<f64, ParamError> {
    let invalid = || ParamError::Invalid("number", Some("a finite number >= 0"));
    let number: f64 = value.parse().map_err(|_| invalid())?;
    if number.is_finite() && number >= 0.0 {
        Ok(number)
    } else {
        Err(invalid())
    }
}

/// A spec's `(key, value)` pairs, in spec order.
type Pairs<'a> = Vec<(String, &'a str)>;

/// Split a spec string into its base name and its `(key, value)` pairs: keys
/// trimmed and ASCII-lowercased, values trimmed, empty pairs (a trailing comma)
/// skipped. `noun` names the family in the error messages.
fn split<'a>(spec: &'a str, noun: &str) -> Result<(&'a str, Pairs<'a>), String> {
    let spec = spec.trim();
    let Some((base, rest)) = spec.split_once('(') else {
        return Ok((spec, Vec::new()));
    };
    let inner = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("{noun} spec '{spec}' has an unterminated parameter list"))?;
    let pairs = inner
        .split(',')
        .filter(|pair| !pair.trim().is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((key, value)) => Ok((key.trim().to_ascii_lowercase(), value.trim())),
            None => Err(format!(
                "{noun} parameter '{pair}' is not of the form key=value"
            )),
        })
        .collect::<Result<_, _>>()?;
    Ok((base, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Opts {
        k: Option<usize>,
        w: Option<f64>,
    }

    impl SpecOptions for Opts {
        const KEYS: &'static [Key<Opts>] = &[
            Key {
                name: "k",
                aliases: &[],
                kind: Kind::Count { max: 100 },
                help: "neighbor count",
                set: |o, v| put(&mut o.k, parse(v, "count")),
            },
            Key {
                name: "w",
                aliases: &["weight"],
                kind: Kind::Number,
                help: "edge weight",
                set: |o, v| {
                    let w: f64 = parse(v, "weight")?;
                    if w < 0.0 {
                        return Err(ParamError::Invalid("weight", Some("w >= 0")));
                    }
                    o.w = Some(w);
                    Ok(())
                },
            },
        ];
    }

    fn build_knn(o: &Opts) -> Box<str> {
        format!("knn k={:?} w={:?}", o.k, o.w).into()
    }

    const TEST: Registry<str, Opts> = Registry::new(
        "test",
        "tester",
        &[Entry {
            name: "knn",
            aliases: &["nearest"],
            description: "test builder",
            build: build_knn,
        }],
    );

    #[test]
    fn spec_grammar_table() {
        let defaults = Opts {
            k: Some(10),
            w: Some(2.0),
        };
        let cases: &[(&str, Result<&str, &str>)] = &[
            // Bare names keep every default; base names are case-insensitive.
            ("knn", Ok("knn k=Some(10) w=Some(2.0)")),
            ("KNN", Ok("knn k=Some(10) w=Some(2.0)")),
            ("Nearest()", Ok("knn k=Some(10) w=Some(2.0)")),
            // Spec keys override defaults; unset keys keep them.
            ("knn(k=3)", Ok("knn k=Some(3) w=Some(2.0)")),
            ("knn(w=0.5,k=4)", Ok("knn k=Some(4) w=Some(0.5)")),
            // Aliases set the same field.
            ("knn(weight=0.5)", Ok("knn k=Some(10) w=Some(0.5)")),
            ("knn(K=3)", Ok("knn k=Some(3) w=Some(2.0)")),
            // Surrounding whitespace, around the spec and inside the list.
            ("  knn ( k = 3 , w=1 )  ", Ok("knn k=Some(3) w=Some(1.0)")),
            // A trailing comma is an empty pair and is skipped.
            ("knn(k=3,)", Ok("knn k=Some(3) w=Some(2.0)")),
            (
                "knn(=3)",
                Err("unknown tester parameter '' (expected one of k, w (weight))"),
            ),
            (
                "knn(frobs=1)",
                Err("unknown tester parameter 'frobs' (expected one of k, w (weight))"),
            ),
            (
                "knn(k=3",
                Err("tester spec 'knn(k=3' has an unterminated parameter list"),
            ),
            (
                "knn(k)",
                Err("tester parameter 'k' is not of the form key=value"),
            ),
            (
                "knn(k=lots)",
                Err("tester parameter 'k' has invalid count 'lots'"),
            ),
            // A count may reach its maximum but not pass it.
            ("knn(k=100)", Ok("knn k=Some(100) w=Some(2.0)")),
            (
                "knn(k=101)",
                Err("tester parameter 'k' has count '101' above the maximum 100"),
            ),
            (
                "knn(w=-1)",
                Err("tester parameter 'w' has invalid weight '-1' (expected w >= 0)"),
            ),
            (
                "nope(k=3)",
                Err("unknown test method 'nope' (expected one of knn)"),
            ),
        ];
        for (spec, expected) in cases {
            let got = TEST.by_spec(spec, &defaults);
            let got = got.as_deref().map_err(String::as_str);
            assert_eq!(got, *expected, "spec {spec:?}");
        }
    }

    #[test]
    fn lookup_is_trimmed_and_case_insensitive() {
        assert_eq!(TEST.canonical(" KNN "), Some("knn"));
        assert_eq!(TEST.canonical("nearest"), Some("knn"));
        assert_eq!(TEST.canonical("knn(k=3)"), None);
        assert_eq!(TEST.names(), vec!["knn"]);
        let none = Opts { k: None, w: None };
        assert_eq!(
            &*TEST.build(" Nearest", &none).unwrap(),
            "knn k=None w=None"
        );
        assert_eq!(TEST.build_all(&none).len(), TEST.entries().len());
        assert_eq!(
            TEST.build("knn(k=3)", &none).unwrap_err(),
            "unknown test method 'knn(k=3)' (expected one of knn)"
        );
    }

    #[test]
    fn options_apply_front_end_keys_by_name_under_the_spec() {
        let defaults = Opts { k: None, w: None };
        // A front-end supplies values by key name; the spec still overrides them.
        let opts = TEST
            .options(defaults.clone(), |key| {
                Ok((key.name == "k").then(|| "3".to_string()))
            })
            .unwrap();
        assert_eq!(opts.k, Some(3));
        assert_eq!(
            &*TEST.by_spec("knn(k=4)", &opts).unwrap(),
            "knn k=Some(4) w=None"
        );
        // A bad value reads exactly as it does inside a spec.
        let bad = TEST.options(defaults.clone(), |key| Ok(Some(format!("-1{}", key.name))));
        assert_eq!(
            bad.map(|_| ()).unwrap_err(),
            "tester parameter 'k' has invalid count '-1k'"
        );
        let err = TEST
            .by_spec("knn(k=-1k)", &defaults)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, "tester parameter 'k' has invalid count '-1k'");
        // A front-end's own type error stops the loop unchanged.
        let typed = TEST.options(defaults, |_| Err("field 'k' must be a number".into()));
        assert_eq!(typed.map(|_| ()).unwrap_err(), "field 'k' must be a number");
    }
}

//! Minimal flag parser (no external dependency): `--key value` pairs plus
//! positional arguments.

use std::collections::HashMap;

/// Flags every command takes.
const GLOBAL_FLAGS: [&str; 2] = ["trace", "metrics-json"];

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
    /// The command's own flags, once [`Args::accept`] has checked them.
    accepted: Option<&'static str>,
}

/// Whether a command whose own flags are `flags` takes `--key`.
fn takes(flags: &str, key: &str) -> bool {
    GLOBAL_FLAGS.contains(&key) || flags.split_whitespace().any(|flag| flag == key)
}

/// Parse `--key value` pairs; anything else is positional. A flag without
/// a following value is an error (boolean flags use `--key true`).
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let token = &argv[i];
        if let Some(key) = token.strip_prefix("--") {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("flag --{key} is missing a value"))?;
            if value.starts_with("--") {
                return Err(format!("flag --{key} is missing a value"));
            }
            if args.flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
            i += 2;
        } else {
            args.positional.push(token.clone());
            i += 1;
        }
    }
    Ok(args)
}

impl Args {
    /// Check every given flag against `flags`, the space-separated names
    /// of the ones `command` takes (besides the [`GLOBAL_FLAGS`]): the
    /// first unknown flag, in name order, is an error that names it. Once
    /// accepted, reading a flag outside the list is a bug the debug build
    /// asserts on, so the list cannot fall behind the command.
    pub fn accept(&mut self, command: &str, flags: &'static str) -> Result<(), String> {
        let unknown = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|key| !takes(flags, key))
            .min();
        if let Some(key) = unknown {
            return Err(format!("{command} does not take --{key}"));
        }
        self.accepted = Some(flags);
        Ok(())
    }

    fn lookup(&self, key: &str) -> Option<&String> {
        debug_assert!(
            self.accepted.is_none_or(|flags| takes(flags, key)),
            "flag --{key} is read but not in the command's flag list"
        );
        self.flags.get(key)
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.lookup(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.lookup(key).map(String::as_str)
    }

    /// An optional flag parsed to a type, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.lookup(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse {v:?}")),
        }
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&argv(&["stats", "--seed", "42", "file.json"])).unwrap();
        assert_eq!(
            a.positional(),
            &["stats".to_string(), "file.json".to_string()]
        );
        assert_eq!(a.require("seed").unwrap(), "42");
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 42);
        assert_eq!(a.get_or::<u64>("missing", 7).unwrap(), 7);
        assert!(a.get("nope").is_none());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--seed"])).is_err());
        assert!(parse(&argv(&["--seed", "--out"])).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&argv(&["--m", "3", "--m", "5"])).is_err());
    }

    #[test]
    fn unparsable_typed_flag_is_an_error() {
        let a = parse(&argv(&["--m", "three"])).unwrap();
        assert!(a.get_or::<usize>("m", 1).is_err());
    }

    #[test]
    fn accept_names_the_first_unknown_flag() {
        let mut a = parse(&argv(&["--zeta", "1", "--lamda", "5", "--m", "3"])).unwrap();
        let e = a.accept("select", "m seed").unwrap_err();
        assert_eq!(e, "select does not take --lamda");
        let mut a = parse(&argv(&["--m", "3", "--trace", "info"])).unwrap();
        assert!(a.accept("select", "m seed").is_ok());
        assert_eq!(a.get_or::<usize>("m", 1).unwrap(), 3);
    }

    #[test]
    fn missing_required_flag() {
        let a = parse(&argv(&[])).unwrap();
        assert!(a.require("corpus").is_err());
    }
}

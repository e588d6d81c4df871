//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed arguments: a subcommand plus `--key value` options and bare
/// `--flag` switches.
#[derive(Debug, Default)]
pub struct Args {
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Option keys that are boolean switches (no value follows).
const SWITCHES: &[&str] = &[
    "gantt",
    "quiet",
    "oracle",
    "oracle-keep-going",
    "fallback",
    "check",
];

impl Args {
    /// Parses `argv` (after the subcommand), accepting the option `keys`
    /// the command takes.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, options outside `keys` and options
    /// missing their value.
    pub fn parse(argv: &[String], keys: &[&str]) -> Result<Self, String> {
        let mut args = Self::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{token}`"));
            };
            if !keys.contains(&key) {
                return Err(format!("unknown option `{token}`"));
            }
            if SWITCHES.contains(&key) {
                args.flags.push(key.to_string());
                i += 1;
                continue;
            }
            let Some(value) = argv.get(i + 1) else {
                return Err(format!("option `--{key}` is missing a value"));
            };
            args.options.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(args)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparsable numbers with the offending key.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option `--{key}` expects a number, got `{v}`")),
        }
    }

    /// An integer option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparsable integers with the offending key.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option `--{key}` expects an integer, got `{v}`")),
        }
    }

    /// A seed option with a default. Accepts decimal or `0x…` hex — the
    /// form quarantine records print seeds in, so a record's seed can be
    /// pasted into `repro --seed` verbatim.
    ///
    /// # Errors
    ///
    /// Reports unparsable seeds with the offending key.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                parsed.map_err(|_| format!("option `--{key}` expects an integer, got `{v}`"))
            }
        }
    }

    /// Whether a boolean switch was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[&str] = &[
        "tasks",
        "gantt",
        "x-ms",
        "seed",
        "oracle-keep-going",
        "fallback",
    ];

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_options_and_switches() {
        let a = Args::parse(&sv(&["--tasks", "40", "--gantt", "--x-ms", "250.5"]), KEYS).unwrap();
        assert_eq!(a.get_usize("tasks", 0).unwrap(), 40);
        assert_eq!(a.get_f64("x-ms", 0.0).unwrap(), 250.5);
        assert!(a.has_flag("gantt"));
        assert!(!a.has_flag("quiet"));
        assert_eq!(a.get_or("scheme", "sdem-on"), "sdem-on");
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Args::parse(&sv(&["tasks"]), KEYS).is_err());
        assert!(Args::parse(&sv(&["--tasks"]), KEYS).is_err());
    }

    #[test]
    fn rejects_options_the_command_does_not_take() {
        let err = Args::parse(&sv(&["--tasks", "4", "--orcale-tol", "0"]), KEYS).unwrap_err();
        assert_eq!(err, "unknown option `--orcale-tol`");
        let err = Args::parse(&sv(&["--quiet"]), KEYS).unwrap_err();
        assert_eq!(err, "unknown option `--quiet`");
        assert!(Args::parse(&sv(&["--tasks", "4"]), &[]).is_err());
    }

    #[test]
    fn reports_bad_numbers() {
        let a = Args::parse(&sv(&["--tasks", "many"]), KEYS).unwrap();
        let err = a.get_usize("tasks", 0).unwrap_err();
        assert!(err.contains("tasks"));
        let a = Args::parse(&sv(&["--x-ms", "fast"]), KEYS).unwrap();
        assert!(a.get_f64("x-ms", 0.0).is_err());
        let a = Args::parse(&sv(&["--seed", "s"]), KEYS).unwrap();
        assert!(a.get_u64("seed", 0).is_err());
        let a = Args::parse(&sv(&["--seed", "0xzz"]), KEYS).unwrap();
        assert!(a.get_u64("seed", 0).is_err());
    }

    #[test]
    fn seeds_accept_hex_as_printed_by_quarantine_records() {
        let a = Args::parse(&sv(&["--seed", "0x000000000f166000"]), KEYS).unwrap();
        assert_eq!(a.get_u64("seed", 0).unwrap(), 0xF16_6000);
        let a = Args::parse(&sv(&["--seed", "255"]), KEYS).unwrap();
        assert_eq!(a.get_u64("seed", 0).unwrap(), 255);
        let a = Args::parse(&sv(&["--oracle-keep-going", "--fallback"]), KEYS).unwrap();
        assert!(a.has_flag("oracle-keep-going"));
        assert!(a.has_flag("fallback"));
    }

    #[test]
    fn defaults_flow_through() {
        let a = Args::parse(&[], KEYS).unwrap();
        assert_eq!(a.get_f64("alpha-m", 4.0).unwrap(), 4.0);
        assert_eq!(a.get_u64("seed", 1).unwrap(), 1);
    }
}

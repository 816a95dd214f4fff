//! The system Configuration (§III, Fig. 2).
//!
//! "The queries to consider are described in a Configuration file. …
//! It specifies the maximal query length to consider, the columns on which
//! to allow predicates (we call them 'Dimensions'), and a set of target
//! columns." The file format is a minimal line-oriented `key = value`
//! syntax (lists comma-separated, `#` comments) so no external parser
//! dependency is needed.

use std::fmt;

/// Errors raised while parsing or validating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Syntax error with line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        detail: String,
    },
    /// Semantically invalid configuration.
    Invalid {
        /// Description.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Parse { line, detail } => write!(f, "config line {line}: {detail}"),
            ConfigError::Invalid { detail } => write!(f, "invalid config: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Pre-processing configuration for one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    /// Data set / table name (informational).
    pub table: String,
    /// Dimension columns on which queries may place equality predicates.
    pub dimensions: Vec<String>,
    /// Target columns queries may ask about.
    pub targets: Vec<String>,
    /// Maximum number of equality predicates per query ("query length").
    pub max_query_length: usize,
    /// Maximum number of *additional* equality predicates per fact beyond
    /// the query's own (default 2, §III).
    pub max_fact_dimensions: usize,
    /// Maximum facts per speech (default 3: "user retention decreases
    /// sharply after three facts", §VIII-A).
    pub speech_length: usize,
    /// Include the overall-average fact (empty extra scope) as a
    /// candidate. On by default (Example 5's deployed speeches lead with
    /// the general value).
    pub include_overall_fact: bool,
    /// Worker threads *inside* one exact-solver invocation (the parallel
    /// branch-and-bound fan-out). Default 1: pre-processing already runs
    /// one problem per pool worker, so nested parallelism only pays off
    /// when a single huge instance dominates (or when solving
    /// interactively). `0` = the executor's maximum (all cores for the
    /// scoped default, the pool size when the fan-out rides the shared
    /// [`crate::service::SolverPool`]). Even with workers granted, tiny
    /// instances still solve sequentially: the solver estimates its tree
    /// as `facts × speech_length` and fans out only past
    /// `ExactSummarizer::fan_out_threshold` (default
    /// `DEFAULT_FAN_OUT_THRESHOLD = 4096`), so fan-out overhead can never
    /// make a µs-scale search slower. Results are byte-identical for
    /// every worker count.
    pub solver_workers: usize,
}

impl Default for Configuration {
    fn default() -> Self {
        Configuration {
            table: String::new(),
            dimensions: Vec::new(),
            targets: Vec::new(),
            max_query_length: 2,
            max_fact_dimensions: 2,
            speech_length: 3,
            include_overall_fact: true,
            solver_workers: 1,
        }
    }
}

impl Configuration {
    /// Convenience constructor with the paper's defaults.
    pub fn new(table: &str, dimensions: &[&str], targets: &[&str]) -> Self {
        Configuration {
            table: table.to_string(),
            dimensions: dimensions.iter().map(|s| s.to_string()).collect(),
            targets: targets.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dimensions.is_empty() {
            return Err(ConfigError::Invalid {
                detail: "no dimensions configured".into(),
            });
        }
        // Dimension subsets, scopes and fact catalogs are 32-bit masks.
        if self.dimensions.len() >= 32 {
            return Err(ConfigError::Invalid {
                detail: format!(
                    "at most 31 dimensions supported, got {}",
                    self.dimensions.len()
                ),
            });
        }
        if self.targets.is_empty() {
            return Err(ConfigError::Invalid {
                detail: "no targets configured".into(),
            });
        }
        if self.speech_length == 0 {
            return Err(ConfigError::Invalid {
                detail: "speech_length must be ≥ 1".into(),
            });
        }
        for dim in &self.dimensions {
            if self.targets.contains(dim) {
                return Err(ConfigError::Invalid {
                    detail: format!("column '{dim}' is both dimension and target"),
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for dim in &self.dimensions {
            if !seen.insert(dim) {
                return Err(ConfigError::Invalid {
                    detail: format!("duplicate dimension '{dim}'"),
                });
            }
        }
        Ok(())
    }

    /// Parse the line-oriented config format:
    ///
    /// ```text
    /// # flight statistics deployment
    /// table = flights
    /// dimensions = airline, origin_region, season
    /// targets = cancelled
    /// max_query_length = 2
    /// max_fact_dimensions = 2
    /// speech_length = 3
    /// include_overall_fact = true
    /// ```
    pub fn parse(text: &str) -> Result<Configuration, ConfigError> {
        let mut config = Configuration::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError::Parse {
                line: line_no,
                detail: format!("expected 'key = value', got '{line}'"),
            })?;
            let key = key.trim();
            let value = value.trim();
            let parse_usize = |v: &str| {
                v.parse::<usize>().map_err(|_| ConfigError::Parse {
                    line: line_no,
                    detail: format!("'{v}' is not a non-negative integer"),
                })
            };
            let parse_list = |v: &str| -> Vec<String> {
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            };
            match key {
                "table" => config.table = value.to_string(),
                "dimensions" => config.dimensions = parse_list(value),
                "targets" => config.targets = parse_list(value),
                "max_query_length" => config.max_query_length = parse_usize(value)?,
                "max_fact_dimensions" => config.max_fact_dimensions = parse_usize(value)?,
                "speech_length" => config.speech_length = parse_usize(value)?,
                "solver_workers" => config.solver_workers = parse_usize(value)?,
                "include_overall_fact" => {
                    config.include_overall_fact = match value {
                        "true" | "yes" | "1" => true,
                        "false" | "no" | "0" => false,
                        other => {
                            return Err(ConfigError::Parse {
                                line: line_no,
                                detail: format!("'{other}' is not a boolean"),
                            })
                        }
                    }
                }
                other => {
                    return Err(ConfigError::Parse {
                        line: line_no,
                        detail: format!("unknown key '{other}'"),
                    })
                }
            }
        }
        config.validate()?;
        Ok(config)
    }

    /// Serialize back to the config format (round-trips through
    /// [`Configuration::parse`]).
    pub fn to_config_string(&self) -> String {
        format!(
            "table = {}\ndimensions = {}\ntargets = {}\nmax_query_length = {}\n\
             max_fact_dimensions = {}\nspeech_length = {}\ninclude_overall_fact = {}\n\
             solver_workers = {}\n",
            self.table,
            self.dimensions.join(", "),
            self.targets.join(", "),
            self.max_query_length,
            self.max_fact_dimensions,
            self.speech_length,
            self.include_overall_fact,
            self.solver_workers,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# flight statistics deployment
table = flights
dimensions = airline, origin_region, season
targets = cancelled

max_query_length = 2
speech_length = 3
";

    #[test]
    fn parses_sample() {
        let config = Configuration::parse(SAMPLE).unwrap();
        assert_eq!(config.table, "flights");
        assert_eq!(
            config.dimensions,
            vec!["airline", "origin_region", "season"]
        );
        assert_eq!(config.targets, vec!["cancelled"]);
        assert_eq!(config.max_query_length, 2);
        assert_eq!(config.max_fact_dimensions, 2); // default
        assert!(config.include_overall_fact);
        assert_eq!(config.solver_workers, 1); // default: pool-level parallelism
    }

    #[test]
    fn solver_workers_parse_and_roundtrip() {
        let text = "dimensions = a\ntargets = t\nsolver_workers = 8";
        let config = Configuration::parse(text).unwrap();
        assert_eq!(config.solver_workers, 8);
        let reparsed = Configuration::parse(&config.to_config_string()).unwrap();
        assert_eq!(config, reparsed);
        assert!(Configuration::parse("dimensions = a\ntargets = t\nsolver_workers = x").is_err());
    }

    #[test]
    fn roundtrip() {
        let config = Configuration::parse(SAMPLE).unwrap();
        let reparsed = Configuration::parse(&config.to_config_string()).unwrap();
        assert_eq!(config, reparsed);
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(matches!(
            Configuration::parse("dimensions airline"),
            Err(ConfigError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            Configuration::parse("max_query_length = two\ndimensions = a\ntargets = t"),
            Err(ConfigError::Parse { line: 1, .. })
        ));
        assert!(Configuration::parse("unknown_key = 1").is_err());
    }

    #[test]
    fn rejects_invalid_semantics() {
        assert!(Configuration::parse("table = t").is_err()); // no dims/targets
        let overlapping = "dimensions = a, b\ntargets = a";
        assert!(matches!(
            Configuration::parse(overlapping),
            Err(ConfigError::Invalid { .. })
        ));
        let duplicate = "dimensions = a, a\ntargets = t";
        assert!(Configuration::parse(duplicate).is_err());
        let zero_speech = "dimensions = a\ntargets = t\nspeech_length = 0";
        assert!(Configuration::parse(zero_speech).is_err());
    }

    #[test]
    fn boolean_forms() {
        let base = "dimensions = a\ntargets = t\ninclude_overall_fact = ";
        assert!(
            !Configuration::parse(&format!("{base}no"))
                .unwrap()
                .include_overall_fact
        );
        assert!(
            Configuration::parse(&format!("{base}1"))
                .unwrap()
                .include_overall_fact
        );
        assert!(Configuration::parse(&format!("{base}maybe")).is_err());
    }
}

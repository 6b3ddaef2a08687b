//@file: crates/core/src/lib.rs
pub fn step() {}
//@file: crates/gp/src/lib.rs
pub fn fit() {}
//@file: determinism-certificate.json
{
  "schema": "hyperpower-determinism-certificate/v1",
  "provenance": "analyzer-v4",
  "crates": [
    {
      "crate": "crates/core",
      "files": 1,
      "facts": [
        {"fact": "no-wall-clock-flow", "rules": ["clippy::disallowed_methods", "R10"], "status": "proved"},
        {"fact": "all-rng-rooted", "rules": ["R8", "R11"], "status": "proved"},
        {"fact": "no-unordered-collections", "rules": ["clippy::disallowed_types"], "status": "proved"},
        {"fact": "panic-free-commit-path", "rules": ["R15"], "status": "proved"},
        {"fact": "header-complete", "rules": ["R13"], "status": "proved"}
      ]
    }
  ]
}

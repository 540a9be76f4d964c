//! Command-line checking shared by the `explore` and `report` binaries.
//!
//! Both look flags up by name ([`arg_value`]), which on its own would
//! silently ignore an unknown flag, a stray token, a flag with no value
//! or a repeated flag. [`check_args`] refuses each of them first, so a
//! mistyped flag is a usage error (exit 64) instead of a run on defaults.

/// The value following `flag` in `args`, if `flag` occurs.
#[must_use]
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Check `args` (the program name first) against a binary's flags:
/// `valued(flag)` says whether `flag` takes a value, and `switches` lists
/// the flags that take none.
///
/// # Errors
/// Names the first argument that is not a listed flag, a flag given
/// twice, or a valued flag whose value is missing or is itself a flag.
pub fn check_args(
    args: &[String],
    valued: impl Fn(&str) -> bool,
    switches: &[&str],
) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(flag) = rest.next() {
        let takes_value = valued(flag);
        if !takes_value && !switches.contains(&flag) {
            return Err(format!("unknown argument {flag:?} (see --help)"));
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        // A value that is itself a flag is a missing value, not a value.
        if takes_value && rest.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("{flag} needs a value"));
        }
    }
    Ok(())
}

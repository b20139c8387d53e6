//! `chaos_bench`'s flag grammar: `--smoke`, then `--flag value` pairs. An
//! unknown flag, a flag without a value or a value that does not parse
//! prints the valid flags to stderr and exits 2.

use std::str::FromStr;

/// One `--flag value` pair: its name and the slot it parses into.
pub struct Flag<'a> {
    name: &'static str,
    set: Box<dyn FnMut(&str) -> bool + 'a>,
}

/// `--name <value>` parsed into `slot` (left at its default when the flag
/// is absent).
pub fn flag<'a, T: FromStr>(name: &'static str, slot: &'a mut T) -> Flag<'a> {
    Flag {
        name,
        set: Box::new(move |v| v.parse().map(|parsed| *slot = parsed).is_ok()),
    }
}

/// Apply `args` to `flags`; `Ok(smoke)` says whether `--smoke` was given.
pub fn parse(
    mut args: impl Iterator<Item = String>,
    flags: &mut [Flag<'_>],
) -> Result<bool, String> {
    let mut smoke = false;
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(f) = flags.iter_mut().find(|f| f.name == arg) else {
            return Err(format!("unknown flag {arg}"));
        };
        let Some(v) = args.next() else {
            return Err(format!("flag {arg} needs a value"));
        };
        if !(f.set)(&v) {
            return Err(format!("bad value {v} for {arg}"));
        }
    }
    Ok(smoke)
}

/// [`parse`] over the process arguments; on error print the message and
/// `bin`'s flag list to stderr and exit 2.
pub fn parse_or_exit(bin: &str, flags: &mut [Flag<'_>]) -> bool {
    parse(std::env::args().skip(1), flags).unwrap_or_else(|e| {
        let names: Vec<&str> = flags.iter().map(|f| f.name).collect();
        eprintln!(
            "{bin}: {e}\nusage: {bin} [--smoke] [{} <value>]...",
            names.join(" | ")
        );
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str], a: &mut usize, b: &mut f64) -> Result<bool, String> {
        parse(
            args.iter().map(|s| s.to_string()),
            &mut [flag("--a", a), flag("--b", b)],
        )
    }

    #[test]
    fn pairs_smoke_and_defaults() {
        let (mut a, mut b) = (1usize, 2.5f64);
        assert_eq!(run(&["--b", "0.5", "--smoke"], &mut a, &mut b), Ok(true));
        assert_eq!((a, b), (1, 0.5));
        assert_eq!(run(&[], &mut a, &mut b), Ok(false));
    }

    #[test]
    fn typos_are_errors_not_panics() {
        let (mut a, mut b) = (1usize, 2.5f64);
        assert!(run(&["--nope", "3"], &mut a, &mut b)
            .unwrap_err()
            .contains("unknown flag --nope"));
        assert!(run(&["--a"], &mut a, &mut b)
            .unwrap_err()
            .contains("needs a value"));
        assert!(run(&["--a", "x"], &mut a, &mut b)
            .unwrap_err()
            .contains("bad value x for --a"));
    }
}

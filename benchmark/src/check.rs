//! Output correctness: every report or response an operation produces
//! is hashed and compared with the digest pinned in `benchmark/refs.txt`.

use std::collections::BTreeMap;

/// The pinned reference digests, compiled in so a run never depends on
/// files outside the build.
const PINNED: &str = include_str!("../refs.txt");

/// Where `--bless` writes freshly recorded digests (relative to the
/// repository root the benchmark runs from).
pub const REFS_PATH: &str = "benchmark/refs.txt";

/// 64-bit FNV-1a. Each step is a bijection of the state for a fixed
/// input byte, so any single-byte change to an output of fixed length
/// always changes its digest.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(digest, byte length)` of one output.
type Pin = (u64, usize);

/// Parses `refs.txt` lines of `<workload> <output> <digest hex> <bytes>`.
fn parse_refs(text: &str) -> BTreeMap<(String, String), Pin> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "malformed refs line: {l}");
            let hash = u64::from_str_radix(f[2], 16).expect("refs digest is hex");
            let len = f[3].parse().expect("refs length is an integer");
            ((f[0].to_string(), f[1].to_string()), (hash, len))
        })
        .collect()
}

/// Counts operations and failures for one workload run.
///
/// An operation fails when it panics, answers an error, or produces an
/// output whose digest differs from the pinned one (a missing pin is a
/// mismatch too). In bless mode outputs are recorded instead, and an
/// output that changes between operations of one run still fails.
pub struct Checker {
    workload: &'static str,
    refs: BTreeMap<(String, String), Pin>,
    bless: bool,
    recorded: BTreeMap<String, Pin>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Names of the outputs that mismatched, with their counts.
    pub mismatches: BTreeMap<String, u64>,
}

impl Checker {
    /// A checker against the compiled-in pins.
    pub fn new(workload: &'static str, bless: bool) -> Self {
        Self::with_refs(workload, PINNED, bless)
    }

    /// A checker against the given refs text.
    pub fn with_refs(workload: &'static str, refs: &str, bless: bool) -> Self {
        Self {
            workload,
            refs: parse_refs(refs),
            bless,
            recorded: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            mismatches: BTreeMap::new(),
        }
    }

    /// Checks one operation's named outputs; returns whether it passed.
    pub fn op<'a>(&mut self, outputs: impl IntoIterator<Item = (&'a str, &'a str)>) -> bool {
        self.attempted += 1;
        let mut ok = true;
        for (name, bytes) in outputs {
            let pin = (digest(bytes.as_bytes()), bytes.len());
            let expected = if self.bless {
                *self.recorded.entry(name.to_string()).or_insert(pin)
            } else {
                match self
                    .refs
                    .get(&(self.workload.to_string(), name.to_string()))
                {
                    Some(&p) => p,
                    None => (!pin.0, 0),
                }
            };
            if pin != expected {
                ok = false;
                *self.mismatches.entry(name.to_string()).or_default() += 1;
            }
        }
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts an operation that produced no output (panic or error).
    pub fn failed_op(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        *self.mismatches.entry(what.to_string()).or_default() += 1;
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Rewrites `REFS_PATH`, replacing this workload's pins with the
    /// ones recorded in bless mode and keeping every other workload's.
    pub fn write_blessed(&self) -> std::io::Result<()> {
        let existing = std::fs::read_to_string(REFS_PATH).unwrap_or_default();
        let mut refs = parse_refs(&existing);
        refs.retain(|(w, _), _| w != self.workload);
        for (name, &pin) in &self.recorded {
            refs.insert((self.workload.to_string(), name.clone()), pin);
        }
        let mut text = String::from(
            "# Pinned output digests: <workload> <output> <fnv1a-64 hex> <bytes>.\n\
             # Regenerate only for an intentional output change:\n\
             #   cargo run --release --manifest-path benchmark/Cargo.toml -- --workload <name> --bless\n",
        );
        for ((w, name), (hash, len)) in &refs {
            text.push_str(&format!("{w} {name} {hash:016x} {len}\n"));
        }
        std::fs::write(REFS_PATH, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim::service::SimService;

    #[test]
    fn any_single_byte_change_changes_the_digest() {
        let report = "LayerName, ComputeCycles\nconv1, 1234\n";
        let base = digest(report.as_bytes());
        let mut bytes = report.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let saved = bytes[i];
            bytes[i] ^= 0x01;
            assert_ne!(digest(&bytes), base, "flip at byte {i}");
            bytes[i] = saved;
        }
    }

    /// The pinned `area` response passes, and the same response with
    /// one byte of its report changed is caught and named.
    #[test]
    fn a_one_byte_change_to_a_report_is_caught() {
        let line = crate::workloads::serve_pool()
            .into_iter()
            .find(|(id, _)| *id == "area")
            .expect("the serve pool has an area request")
            .1;
        let response = scalesim::serve::handle_line(&SimService::new(), &line);
        let mut check = Checker::new("serve-mix", false);
        assert!(check.op([("area", response.as_str())]));

        let at = response
            .find("AREA_REPORT.csv")
            .expect("area report in the body");
        let mut tampered = response.clone().into_bytes();
        tampered[at + 40] ^= 0x01;
        let tampered = String::from_utf8(tampered).expect("ascii response");
        assert!(!check.op([("area", tampered.as_str())]));
        assert_eq!((check.attempted, check.failed), (2, 1));
        assert_eq!(check.mismatches.get("area"), Some(&1));
        assert!((check.error_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unpinned_outputs_fail_and_bless_mode_records_them() {
        let mut check = Checker::with_refs("w", "", false);
        assert!(!check.op([("x", "data")]));
        let mut bless = Checker::with_refs("w", "", true);
        assert!(bless.op([("x", "data")]));
        assert!(bless.op([("x", "data")]));
        assert!(!bless.op([("x", "dato")]), "nondeterministic output");
    }
}

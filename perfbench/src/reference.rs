//! Answer checking: a 64-bit digest of every query result, and the
//! committed reference digests (`reference.txt`) the benchmark compares
//! them with.
//!
//! The reference holds one line per `(scale factor, query)`:
//! `<sf> <query> <digest>`. It is written by `--write-reference`, which
//! runs each query alone on the simulator.

use std::collections::BTreeMap;
use std::path::Path;
use volcano_db::exec::mat::Mat;
use volcano_db::storage::bat::ColData;
use volcano_db::tpch::QuerySpec;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn hash_col(h: &mut Fnv, c: &ColData) {
    match c {
        ColData::I64(v) => {
            h.u64(1);
            h.u64(v.len() as u64);
            v.iter().for_each(|&x| h.u64(x as u64));
        }
        ColData::F64(v) => {
            h.u64(2);
            h.u64(v.len() as u64);
            v.iter().for_each(|&x| h.u64(x.to_bits()));
        }
    }
}

fn hash_pos(h: &mut Fnv, table: &str, pos: &[u32]) {
    h.bytes(table.as_bytes());
    h.u64(pos.len() as u64);
    pos.iter().for_each(|&p| h.u64(u64::from(p)));
}

/// Digest of a query result: every value bit for bit (floats by their
/// bit pattern), so two results share a digest only if they are
/// bitwise identical.
pub fn digest(m: &Mat) -> u64 {
    let mut h = Fnv::new();
    match m {
        Mat::Scalar(x) => {
            h.u64(10);
            h.u64(x.to_bits());
        }
        Mat::Groups(g) => {
            h.u64(11);
            h.u64(g.len() as u64);
            for &(k, v) in g.iter() {
                h.u64(k as u64);
                h.u64(v.to_bits());
            }
        }
        Mat::Val(v) => {
            h.u64(12);
            hash_col(&mut h, &v.data);
        }
        Mat::Pos(p) => {
            h.u64(13);
            hash_pos(&mut h, p.table, &p.pos);
        }
        Mat::Pairs(p) => {
            h.u64(14);
            hash_pos(&mut h, p.probe.table, &p.probe.pos);
            hash_pos(&mut h, p.build.table, &p.build.pos);
        }
        Mat::Hash(t) => {
            // No plan ends in a hash table; its row count is the only
            // value-level content exposed.
            h.u64(15);
            h.u64(t.n_rows() as u64);
        }
    }
    h.0
}

/// The reference key of a query: `tpch01.v0`, `q6micro.v0`, ….
pub fn spec_key(spec: &QuerySpec) -> String {
    match spec {
        QuerySpec::Tpch { number, variant } => format!("tpch{number:02}.v{variant}"),
        QuerySpec::Q6 { variant } => format!("q6micro.v{variant}"),
        QuerySpec::ThetaSubselect { sel_pct } => format!("theta{sel_pct}"),
        QuerySpec::WarmupScan => "warmup".to_string(),
    }
}

/// The reference digests, keyed by `(scale factor, query key)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    digests: BTreeMap<(String, String), u64>,
}

/// How a scale factor is written in the reference file.
pub fn sf_key(sf: f64) -> String {
    format!("{sf}")
}

impl Reference {
    /// Parses the reference file format.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [sf, key, hex] = f[..] else {
                return Err(format!("line {}: want `<sf> <query> <digest>`", n + 1));
            };
            let d = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("line {}: bad digest {hex:?}", n + 1))?;
            digests.insert((sf.to_string(), key.to_string()), d);
        }
        Ok(Reference { digests })
    }

    /// Reads a reference file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// The expected digest of `spec` at `sf`.
    pub fn get(&self, sf: f64, spec: &QuerySpec) -> Option<u64> {
        self.digests.get(&(sf_key(sf), spec_key(spec))).copied()
    }

    /// Records a digest.
    pub fn insert(&mut self, sf: f64, spec: &QuerySpec, digest: u64) {
        self.digests.insert((sf_key(sf), spec_key(spec)), digest);
    }

    /// The file form, sorted.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Reference answers: <scale factor> <query> <FNV-1a digest of the result>.\n\
             # Each query run alone on the simulator over the benchmark database\n\
             # (TPC-H generator seed 42). Regenerate with `perfbench --write-reference`.\n",
        );
        for ((sf, key), d) in &self.digests {
            out.push_str(&format!("{sf} {key} {d:016x}\n"));
        }
        out
    }
}

/// Tallies of an answer check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnswerCheck {
    /// Results compared.
    pub checked: u64,
    /// Results whose digest differs from the reference (or that have no
    /// reference), with a description of the first few.
    pub mismatches: Vec<String>,
}

impl AnswerCheck {
    /// Compares one result with the reference.
    pub fn compare(&mut self, reference: &Reference, sf: f64, spec: &QuerySpec, got: u64) {
        self.checked += 1;
        match reference.get(sf, spec) {
            Some(want) if want == got => {}
            want => {
                if self.mismatches.len() < 5 {
                    self.mismatches.push(format!(
                        "{} at sf {sf}: digest {got:016x}, reference {}",
                        spec_key(spec),
                        want.map_or("missing".to_string(), |w| format!("{w:016x}"))
                    ));
                } else {
                    self.mismatches.push(String::new());
                }
            }
        }
    }

    /// Whether every compared result matched.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn digests_see_every_bit() {
        let a = Mat::Scalar(1.0);
        let b = Mat::Scalar(1.0 + f64::EPSILON);
        assert_ne!(digest(&a), digest(&b));
        let g = Mat::Groups(Arc::new(vec![(1, 2.0), (3, 4.0)]));
        let g2 = Mat::Groups(Arc::new(vec![(1, 2.0), (3, 4.5)]));
        assert_ne!(digest(&g), digest(&g2));
        assert_eq!(digest(&g), digest(&g.clone()));
    }

    #[test]
    fn reference_round_trips() {
        let mut r = Reference::default();
        let q = QuerySpec::Tpch {
            number: 3,
            variant: 1,
        };
        r.insert(0.25, &q, 0xdead_beef);
        let back = Reference::parse(&r.render()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.get(0.25, &q), Some(0xdead_beef));
        assert_eq!(back.get(0.05, &q), None);
        let mut check = AnswerCheck::default();
        check.compare(&back, 0.25, &q, 0xdead_beef);
        assert!(check.ok());
        check.compare(&back, 0.25, &q, 1);
        assert!(!check.ok());
        assert!(Reference::parse("0.25 tpch01.v0").is_err());
    }
}

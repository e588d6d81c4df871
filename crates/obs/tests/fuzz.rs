//! Seeded byte-mutation fuzzing of the one JSON reader and the journal
//! loader: corruptions of valid checkpoint, replay and wire request lines
//! must come back as an error, a skipped line or a value — never as a
//! panic or a stack overflow.

use sdem_obs::journal::{Format, Journal};
use sdem_obs::json::{self, Value};
use sdem_prng::{Rng, SeedableRng, SplitMix64};

/// Valid lines of every format the reader sees.
const CORPUS: [&str; 6] = [
    r#"{"sdem_checkpoint":1,"grid_seed":"0x000000000f17b000","points":64,"replications":2}"#,
    r#"{"trial":4,"ok":"3f9c7fe429d163b7 3f79ea855d5a5c02 0000000000000000 6 8 3"}"#,
    r#"{"trial":0,"fault":{"trial":0,"point":0,"replicate":0,"grid_seed":"0x000000000f17b000","seed":"0xb2334ba3e79c1b91","kind":"solver-panic","detail":"injected \"fault\"\n","config":"--kind synthetic --tasks 10"}}"#,
    r#"{"sdem_replay":1,"trace":"seed=0x7e57,sets=2,tasks=3,poisson=0.3,shapes=8","chaos":"","events":40}"#,
    r#"{"seq":0,"line":"{\"v\":1,\"id\":0,\"ok\":true,\"energy_bits\":\"0x3fdb15a337ff739c\",\"degraded\":false}"}"#,
    r#"{"v":1,"id":7,"scheme":"auto","cores":3,"tasks":[[0,0,80,8e6],[1,0,80,1.2e7]]}"#,
];

/// Bytes a mutation inserts, including one that is never valid UTF-8.
const ALPHABET: &[u8] = b"{}[]\",:\\/0123456789.eE+-ntfu \n\t\xff";

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One to four random edits of `bytes`.
fn mutate(rng: &mut SplitMix64, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..=below(rng, 4) {
        let at = below(rng, out.len() + 1);
        match below(rng, 6) {
            0 if at < out.len() => out[at] ^= 1 << below(rng, 8),
            1 => out.insert(at, ALPHABET[below(rng, ALPHABET.len())]),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                // Duplicate a run, e.g. an opening bracket many times over.
                let len = below(rng, 16).min(out.len() - at);
                let run: Vec<u8> = out[at..at + len].repeat(1 + below(rng, 200));
                out.splice(at..at, run);
            }
            _ => {
                let open = if below(rng, 2) == 0 { b"[" } else { b"{" };
                out.splice(at..at, open.repeat(below(rng, 5_000)));
            }
        }
    }
    out
}

#[test]
fn mutated_lines_never_panic_the_reader() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_F022);
    let mut parsed = 0usize;
    for case in 0..20_000 {
        let line = CORPUS[case % CORPUS.len()];
        let bytes = mutate(&mut rng, line.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(doc) = json::parse(&text) {
            parsed += 1;
            let _ = doc.get("line").and_then(Value::as_str);
        }
    }
    // The mutations are mild enough that some survive as valid JSON.
    assert!(parsed > 0, "no mutated line parsed");
}

#[test]
fn mutated_journals_never_panic_the_loader() {
    const FORMAT: Format = Format {
        key: "sdem_checkpoint",
        version: 1,
    };
    let path = std::env::temp_dir().join(format!("sdem-obs-fuzz-{}", std::process::id()));
    let file: String = CORPUS.iter().map(|line| format!("{line}\n")).collect();
    let mut rng = SplitMix64::seed_from_u64(0x10AD_F022);
    let mut loaded = 0usize;
    for _ in 0..2_000 {
        std::fs::write(&path, mutate(&mut rng, file.as_bytes())).expect("write journal");
        let resumed = Journal::resume(&path, FORMAT, |doc| {
            let _ = doc.get("trial").and_then(Value::as_u64);
        });
        if let Ok((_, header)) = resumed {
            assert_eq!(header.get(FORMAT.key).and_then(Value::as_u64), Some(1));
            loaded += 1;
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(loaded > 0, "no mutated journal kept its header");
}

//! Malformed input yields an error, never a panic: byte, token and line
//! mutations of valid `.topo` and `.pol` texts go through
//! `adroute_topology::parse` and `text::parse_policies`, which must return
//! `Ok` or `Err`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use adroute_policy::text::{format_policies, parse_policies};
use adroute_policy::workload::PolicyWorkload;
use adroute_topology::{dump, parse, HierarchyConfig, LinkId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every condition kind of the policy syntax, beside the generated ones.
const ALL_CONDITIONS: &str = "policy AD5 {
    deny src {AD1, AD2};
    permit qos {1, 2} uci {0} cost 3;
    permit src {AD3} dst !{AD9} prev {AD0} next * time 19:00-07:00 cost 2;
    default permit 0;
}
";

/// Tokens that sit on a boundary of some check: keywords of both formats,
/// punctuation, ids and numbers at and past the `u32`/`u64` limits, out of
/// range times, and non-ASCII text.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "-1",
    "AD",
    "AD4294967295",
    "AD99999",
    "ad",
    "link",
    "metric",
    "delay",
    "up",
    "down",
    "backbone",
    "stub",
    "policy",
    "default",
    "permit",
    "deny",
    "src",
    "dst",
    "prev",
    "next",
    "qos",
    "uci",
    "time",
    "cost",
    "{",
    "}",
    "!",
    "*",
    ",",
    ";",
    ":",
    "-",
    "#",
    "24:00",
    "23:59",
    "::",
    "256",
    "é",
    "\u{0}",
    "\n",
    "",
];

fn token(rng: &mut SmallRng) -> &'static str {
    TOKENS[rng.gen_range(0..TOKENS.len())]
}

/// Numbers at the edge of some field's range: times, `u8` classes, `u32`
/// ids and metrics, `u64` delays.
const NUMBERS: &[&str] = &[
    "0",
    "23",
    "24",
    "59",
    "60",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551616",
];

/// Applies one random byte, number, token or line mutation.
fn mutate(rng: &mut SmallRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = |rng: &mut SmallRng, len: usize| rng.gen_range(0..len + 1);
    match rng.gen_range(0..11) {
        // Bytes: overwrite, insert, delete a range.
        0 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0..=255u8);
        }
        1 => {
            let i = at(rng, bytes.len());
            bytes.splice(i..i, token(rng).bytes());
        }
        2 => {
            let i = at(rng, bytes.len());
            let j = (i + rng.gen_range(0..12usize)).min(bytes.len());
            bytes.drain(i..j);
        }
        // Numbers: one run of digits becomes an edge value.
        3 | 4 => {
            let runs: Vec<(usize, usize)> = (0..bytes.len())
                .filter(|&i| {
                    bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                })
                .map(|i| {
                    (
                        i,
                        i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count(),
                    )
                })
                .collect();
            if !runs.is_empty() {
                let (i, j) = runs[rng.gen_range(0..runs.len())];
                bytes.splice(i..j, NUMBERS[rng.gen_range(0..NUMBERS.len())].bytes());
            }
        }
        // Tokens within one line: replace with a boundary token, delete,
        // copy another token over or in front of it, swap two.
        5..=7 => {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            if lines.is_empty() {
                return token(rng).to_string();
            }
            let li = rng.gen_range(0..lines.len());
            let mut toks: Vec<&str> = lines[li].split(' ').collect();
            let (i, j) = (rng.gen_range(0..toks.len()), rng.gen_range(0..toks.len()));
            match rng.gen_range(0..5) {
                0 => toks[i] = token(rng),
                1 => {
                    toks.remove(i);
                }
                2 => toks.insert(i, toks[j]),
                3 => toks[i] = toks[j],
                _ => toks.swap(i, j),
            }
            let line = toks.join(" ");
            lines[li] = line;
            return lines.join("\n");
        }
        // Lines: delete, duplicate, swap, truncate.
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return String::new();
            }
            let i = rng.gen_range(0..lines.len());
            match rng.gen_range(0..4) {
                0 => {
                    lines.remove(i);
                }
                1 => lines.insert(i, lines[i]),
                2 => {
                    let j = rng.gen_range(0..lines.len());
                    lines.swap(i, j);
                }
                _ => lines.truncate(i),
            }
            return lines.join("\n");
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_inputs_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut topo = HierarchyConfig::with_approx_size(rng.gen_range(20..120), seed).generate();
        for l in 0..topo.num_links() as u32 {
            if rng.gen_bool(0.1) {
                topo.set_link_up(LinkId(l), false);
            }
        }
        let db = PolicyWorkload::default_mix(seed).generate(&topo);
        let mut topo_text = dump(&topo);
        let mut pol_text = format_policies(&db) + ALL_CONDITIONS;
        for _ in 0..rng.gen_range(1..5) {
            topo_text = mutate(&mut rng, &topo_text);
            pol_text = mutate(&mut rng, &pol_text);
        }
        let num_ads = rng.gen_range(0..topo.num_ads() + 8);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse(&topo_text);
            let _ = parse_policies(&pol_text, num_ads);
        }));
        prop_assert!(
            outcome.is_ok(),
            "a parser panicked on\n--- topology ---\n{}\n--- policies ({} ADs) ---\n{}",
            topo_text,
            num_ads,
            pol_text
        );
    }
}

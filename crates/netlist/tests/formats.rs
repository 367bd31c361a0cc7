//! Cross-format round-trip properties of the unified loader: a model
//! chained through every serialization (`.bench` → ASCII `aag` →
//! binary `aig`) must re-fingerprint identically at every hop, with
//! each hop parsed back through `load_model_bytes` format detection
//! rather than a hand-picked parser.

use sec_netlist::{
    load_model, load_model_bytes, parse_bench, structural_fingerprint, write_aiger,
    write_aiger_binary, write_bench, Aig, ParseError, MAX_BINARY_AIGER_INPUTS,
};

fn smoke_bench_text() -> String {
    let p = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/smoke.bench");
    std::fs::read_to_string(p).expect("ci/smoke.bench")
}

/// A small handcrafted model with a complemented latch init and shared
/// cones, exercising the corners the smoke circuit may not.
fn handcrafted() -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_input("a").lit();
    let b = aig.add_input("b").lit();
    let l0 = aig.add_latch(true);
    let l1 = aig.add_latch(false);
    let g = aig.and(a, !l0.lit());
    let h = aig.and(g, !b);
    aig.set_latch_next(l0, h);
    aig.set_latch_next(l1, !g);
    aig.add_output(h, "out");
    aig.add_output(!l1.lit(), "qn");
    aig
}

/// bench → aag → aig, each hop parsed back via the auto-detecting
/// loader, fingerprints equal throughout.
fn roundtrip_chain(c1: &Aig) {
    let fp = structural_fingerprint(c1);
    let aag = write_aiger(c1);
    let c2 = load_model_bytes("hop.aag", aag.as_bytes()).unwrap();
    assert_eq!(
        structural_fingerprint(&c2),
        fp,
        "bench → aag changed the model"
    );
    let bin = write_aiger_binary(&c2);
    let c3 = load_model_bytes("hop.aig", &bin).unwrap();
    assert_eq!(
        structural_fingerprint(&c3),
        fp,
        "aag → aig changed the model"
    );
    // And back out to bench text: the full cycle closes.
    let bench = write_bench(&c3);
    let c4 = load_model_bytes("hop.bench", bench.as_bytes()).unwrap();
    assert_eq!(
        structural_fingerprint(&c4),
        fp,
        "aig → bench changed the model"
    );
}

#[test]
fn smoke_circuit_roundtrips_through_every_format() {
    let c1 = load_model_bytes("smoke.bench", smoke_bench_text().as_bytes()).unwrap();
    assert_eq!(
        structural_fingerprint(&c1),
        structural_fingerprint(&parse_bench(&smoke_bench_text()).unwrap()),
        "loader must agree with the direct bench parser"
    );
    roundtrip_chain(&c1);
}

#[test]
fn handcrafted_circuit_roundtrips_through_every_format() {
    roundtrip_chain(&handcrafted());
}

#[test]
fn oversized_aiger_headers_are_parse_errors() {
    // Header counts no file could back: each must come back as an
    // ordinary parse error before any buffer is sized by the counts.
    for (name, bytes) in [
        // 4e9 ANDs promised by a 33-byte text.
        ("huge.aag", &b"aag 4000000000 0 0 0 4000000000\n"[..]),
        (
            "huge_no_newline.aag",
            &b"aag 4000000000 0 0 0 4000000000"[..],
        ),
        // `I+L+A` wraps to `M = 0` in u32.
        ("wrap.aig", &b"aig 0 4294967295 1 0 0\n2\n"[..]),
        // 4e9 ANDs promised by an empty body.
        ("huge.aig", &b"aig 4000000000 0 0 0 4000000000\n"[..]),
    ] {
        assert!(load_model_bytes(name, bytes).is_err(), "{name}");
    }
    // The bound is tight: two one-digit lines, the last without a
    // newline, in the 3 bytes after the header.
    assert!(load_model_bytes("tight.aag", b"aag 1 1 0 1 0\n2\n2").is_ok());
}

#[test]
fn hostile_binary_aiger_files_are_parse_errors() {
    // The AND's first delta is 0, so `rhs0 == lhs`: the gate would be
    // its own fanin (AIGER requires `lhs > rhs0 >= rhs1`).
    let zero_delta = b"aig 3 2 0 1 1\n6\n\x00\x02";
    assert_eq!(zero_delta.len(), 18);
    // Inputs are implicit, so no file length bounds `I`.
    let input_flood = b"aig 4000000000 4000000000 0 0 0\n";
    assert_eq!(input_flood.len(), 32);
    let over_ceiling = format!("aig {0} {0} 0 0 0\n", MAX_BINARY_AIGER_INPUTS + 1);
    for (name, bytes) in [
        ("zero_delta.aig", &zero_delta[..]),
        ("input_flood.aig", &input_flood[..]),
        ("over_ceiling.aig", over_ceiling.as_bytes()),
    ] {
        let err = load_model_bytes(name, bytes).unwrap_err();
        assert!(matches!(err, ParseError::AigerBin(_)), "{name}: {err}");
    }
    // The same gate with a nonzero delta0 is a valid AND of the inputs.
    let ok = load_model_bytes("ok.aig", b"aig 3 2 0 1 1\n6\n\x02\x02").unwrap();
    assert_eq!((ok.num_inputs(), ok.num_ands()), (2, 1));
}

#[test]
fn load_model_detects_all_three_formats_on_disk() {
    let dir = std::env::temp_dir().join(format!("sec-formats-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let aig = handcrafted();
    let fp = structural_fingerprint(&aig);

    let pb = dir.join("m.bench");
    std::fs::write(&pb, write_bench(&aig)).unwrap();
    assert_eq!(structural_fingerprint(&load_model(&pb).unwrap()), fp);

    let pa = dir.join("m.aag");
    std::fs::write(&pa, write_aiger(&aig)).unwrap();
    assert_eq!(structural_fingerprint(&load_model(&pa).unwrap()), fp);

    let pg = dir.join("m.aig");
    std::fs::write(&pg, write_aiger_binary(&aig)).unwrap();
    assert_eq!(structural_fingerprint(&load_model(&pg).unwrap()), fp);

    let _ = std::fs::remove_dir_all(&dir);
}

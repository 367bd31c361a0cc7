//! Reader and writer for the ASCII AIGER format (`aag`).
//!
//! Supports the AIGER 1.9 latch-initialization extension (a third field on
//! latch lines carrying `0` or `1`). Symbol-table entries for inputs,
//! latches and outputs are written and read back.

use crate::{Aig, Lit};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// An error produced while parsing an `aag` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAigerError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aiger parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseAigerError {}

/// Parses an ASCII AIGER (`aag`) circuit.
///
/// # Errors
///
/// Returns a [`ParseAigerError`] on malformed headers, out-of-range
/// literals, or AND definitions that cannot be topologically ordered.
pub fn parse_aiger(text: &str) -> Result<Aig, ParseAigerError> {
    let err = |line: usize, message: String| ParseAigerError { line, message };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| err(1, "empty file".to_string()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(err(1, "expected header `aag M I L O A`".to_string()));
    }
    let parse_num = |s: &str, line: usize| -> Result<u32, ParseAigerError> {
        s.parse::<u32>()
            .map_err(|_| err(line, format!("invalid number `{s}`")))
    };
    let m = parse_num(fields[1], 1)?;
    let ni = parse_num(fields[2], 1)?;
    let nl = parse_num(fields[3], 1)?;
    let no = parse_num(fields[4], 1)?;
    let na = parse_num(fields[5], 1)?;
    // Every input, latch, output and AND line holds at least one digit,
    // and every line but the last a newline: a header promising more
    // lines than the rest of the text can hold is rejected before any
    // buffer is sized by its counts.
    let rest = text.len().saturating_sub(header.len() + 1) as u64;
    let promised = u64::from(ni) + u64::from(nl) + u64::from(no) + u64::from(na);
    if 2 * promised > rest + 1 {
        return Err(err(
            1,
            format!("header promises {promised} lines but only {rest} bytes follow"),
        ));
    }

    let mut input_lits = Vec::with_capacity(ni as usize);
    let mut latch_defs: Vec<(u32, u32, bool)> = Vec::with_capacity(nl as usize);
    let mut output_lits = Vec::with_capacity(no as usize);
    let mut and_defs: Vec<(u32, u32, u32)> = Vec::with_capacity(na as usize);

    let mut take_line = |what: &str| -> Result<(usize, &str), ParseAigerError> {
        lines
            .next()
            .map(|(i, l)| (i + 1, l))
            .ok_or_else(|| err(0, format!("unexpected end of file reading {what}")))
    };
    for _ in 0..ni {
        let (line, l) = take_line("inputs")?;
        input_lits.push(parse_num(l.trim(), line)?);
    }
    for _ in 0..nl {
        let (line, l) = take_line("latches")?;
        let f: Vec<&str> = l.split_whitespace().collect();
        if f.len() < 2 || f.len() > 3 {
            return Err(err(
                line,
                "latch line must be `cur next [init]`".to_string(),
            ));
        }
        let cur = parse_num(f[0], line)?;
        let next = parse_num(f[1], line)?;
        let init = if f.len() == 3 {
            match f[2] {
                "0" => false,
                "1" => true,
                other => return Err(err(line, format!("unsupported latch init `{other}`"))),
            }
        } else {
            false
        };
        latch_defs.push((cur, next, init));
    }
    for _ in 0..no {
        let (line, l) = take_line("outputs")?;
        output_lits.push(parse_num(l.trim(), line)?);
    }
    for _ in 0..na {
        let (line, l) = take_line("ands")?;
        let f: Vec<&str> = l.split_whitespace().collect();
        if f.len() != 3 {
            return Err(err(line, "and line must be `lhs rhs0 rhs1`".to_string()));
        }
        and_defs.push((
            parse_num(f[0], line)?,
            parse_num(f[1], line)?,
            parse_num(f[2], line)?,
        ));
    }
    // Symbol table.
    let mut symbols: Vec<(char, usize, String)> = Vec::new();
    for (i, l) in lines {
        let line = i + 1;
        let t = l.trim();
        if t.is_empty() || t == "c" {
            break;
        }
        let mut chars = t.chars();
        let kind = chars.next().unwrap();
        if !matches!(kind, 'i' | 'l' | 'o') {
            break; // comment section or junk
        }
        let rest: String = chars.collect();
        let (idx, name) = match rest.split_once(' ') {
            Some((a, b)) => (a, b),
            None => continue,
        };
        let idx: usize = idx
            .parse()
            .map_err(|_| err(line, format!("bad symbol index `{idx}`")))?;
        symbols.push((kind, idx, name.to_string()));
    }

    let mut aig = Aig::new();
    let mut map: HashMap<u32, Lit> = HashMap::new(); // aiger var -> our lit
    map.insert(0, Lit::FALSE);
    let lit_of =
        |code: u32, map: &HashMap<u32, Lit>, line: usize| -> Result<Lit, ParseAigerError> {
            let v = code >> 1;
            if v > m {
                return Err(err(line, format!("literal {code} exceeds maxvar {m}")));
            }
            map.get(&v)
                .map(|l| l.complement_if(code & 1 == 1))
                .ok_or_else(|| err(line, format!("undefined literal {code}")))
        };
    for (k, &l) in input_lits.iter().enumerate() {
        if l & 1 == 1 {
            return Err(err(0, format!("input literal {l} is complemented")));
        }
        let v = aig.add_input(format!("i{k}"));
        map.insert(l >> 1, v.lit());
    }
    let mut latch_vars = Vec::new();
    for &(cur, _, init) in &latch_defs {
        if cur & 1 == 1 {
            return Err(err(0, format!("latch literal {cur} is complemented")));
        }
        let v = aig.add_latch(init);
        map.insert(cur >> 1, v.lit());
        latch_vars.push(v);
    }
    // Topologically order AND definitions (the ASCII format does not
    // guarantee order).
    let mut pending: Vec<(u32, u32, u32)> = and_defs;
    let mut progress = true;
    while !pending.is_empty() && progress {
        progress = false;
        pending.retain(|&(lhs, r0, r1)| {
            if map.contains_key(&(r0 >> 1)) && map.contains_key(&(r1 >> 1)) {
                let a = map[&(r0 >> 1)].complement_if(r0 & 1 == 1);
                let b = map[&(r1 >> 1)].complement_if(r1 & 1 == 1);
                let l = aig.and(a, b);
                map.insert(lhs >> 1, l);
                progress = true;
                false
            } else {
                true
            }
        });
    }
    if !pending.is_empty() {
        return Err(err(
            0,
            format!("{} AND gates form a combinational cycle", pending.len()),
        ));
    }
    for (i, &(_, next, _)) in latch_defs.iter().enumerate() {
        let l = lit_of(next, &map, 0)?;
        aig.set_latch_next(latch_vars[i], l);
    }
    for (k, &o) in output_lits.iter().enumerate() {
        let l = lit_of(o, &map, 0)?;
        aig.add_output(l, format!("o{k}"));
    }
    for (kind, idx, name) in symbols {
        match kind {
            'i' => {
                if let Some(&v) = aig.inputs().get(idx) {
                    aig.set_name(v, name);
                }
            }
            'l' => {
                if let Some(&v) = aig.latches().get(idx) {
                    aig.set_name(v, name);
                }
            }
            'o' if idx < aig.num_outputs() => {
                aig.rename_output(idx, name);
            }
            _ => {}
        }
    }
    Ok(aig)
}

/// Writes a circuit in ASCII AIGER (`aag`) format, renumbering nodes into
/// the canonical inputs-then-latches-then-ANDs variable layout.
pub fn write_aiger(aig: &Aig) -> String {
    let ni = aig.num_inputs();
    let nl = aig.num_latches();
    let na = aig.num_ands();
    let no = aig.num_outputs();
    let m = ni + nl + na;

    let mut newvar: Vec<u32> = vec![0; aig.num_nodes()];
    let mut next_id = 1u32;
    for &v in aig.inputs() {
        newvar[v.index()] = next_id;
        next_id += 1;
    }
    for &v in aig.latches() {
        newvar[v.index()] = next_id;
        next_id += 1;
    }
    for v in aig.and_vars() {
        newvar[v.index()] = next_id;
        next_id += 1;
    }
    let enc = |l: Lit| -> u32 { (newvar[l.var().index()] << 1) | l.is_complemented() as u32 };

    let mut out = String::new();
    let _ = writeln!(out, "aag {m} {ni} {nl} {no} {na}");
    for &v in aig.inputs() {
        let _ = writeln!(out, "{}", newvar[v.index()] << 1);
    }
    for &v in aig.latches() {
        let next = aig
            .latch_next(v)
            .expect("write_aiger requires driven latches");
        let init = aig.latch_init(v) as u32;
        let _ = writeln!(out, "{} {} {init}", newvar[v.index()] << 1, enc(next));
    }
    for o in aig.outputs() {
        let _ = writeln!(out, "{}", enc(o.lit));
    }
    for v in aig.and_vars() {
        let (a, b) = aig.and_fanins(v);
        let (hi, lo) = if enc(a) >= enc(b) {
            (enc(a), enc(b))
        } else {
            (enc(b), enc(a))
        };
        let _ = writeln!(out, "{} {hi} {lo}", newvar[v.index()] << 1);
    }
    for (k, &v) in aig.inputs().iter().enumerate() {
        if let Some(n) = aig.name(v) {
            let _ = writeln!(out, "i{k} {n}");
        }
    }
    for (k, &v) in aig.latches().iter().enumerate() {
        if let Some(n) = aig.name(v) {
            let _ = writeln!(out, "l{k} {n}");
        }
    }
    for (k, o) in aig.outputs().iter().enumerate() {
        if let Some(n) = &o.name {
            let _ = writeln!(out, "o{k} {n}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a").lit();
        let b = aig.add_input("b").lit();
        let l = aig.add_latch(true);
        let f = aig.xor(a, l.lit());
        let g = aig.and(f, b);
        aig.set_latch_next(l, g);
        aig.add_output(!g, "out");
        aig
    }

    #[test]
    fn roundtrip() {
        let aig = sample();
        let text = write_aiger(&aig);
        let back = parse_aiger(&text).unwrap();
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_latches(), aig.num_latches());
        assert_eq!(back.num_outputs(), aig.num_outputs());
        assert_eq!(back.num_ands(), aig.num_ands());
        assert!(back.latch_init(back.latches()[0]));
        assert_eq!(back.name(back.inputs()[0]), Some("a"));
    }

    #[test]
    fn parse_minimal() {
        let aig = parse_aiger("aag 1 1 0 1 0\n2\n3\n").unwrap();
        assert_eq!(aig.num_inputs(), 1);
        assert!(aig.outputs()[0].lit.is_complemented());
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(parse_aiger("aig 1 1 0 1 0\n").is_err());
        assert!(parse_aiger("aag 1 1 0\n").is_err());
    }

    #[test]
    fn parse_out_of_order_ands() {
        // g2 = and(g1, i); g1 = and(i, i) listed after g2.
        let text = "aag 3 1 0 1 2\n2\n6\n6 4 2\n4 2 2\n";
        let aig = parse_aiger(text).unwrap();
        assert_eq!(aig.num_inputs(), 1);
        // and(i,i) strash-simplifies to i, then and(i,i) again -> output = i.
        assert_eq!(aig.outputs()[0].lit, aig.inputs()[0].lit());
    }

    #[test]
    fn constant_output() {
        let mut aig = Aig::new();
        aig.add_output(Lit::TRUE, "t");
        let text = write_aiger(&aig);
        let back = parse_aiger(&text).unwrap();
        assert_eq!(back.outputs()[0].lit, Lit::TRUE);
    }
}

/// An error produced while parsing a binary AIGER (`aig`) file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAigerBinError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseAigerBinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "binary aiger parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseAigerBinError {}

fn read_delta(data: &[u8], pos: &mut usize) -> Result<u32, ParseAigerBinError> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos).ok_or_else(|| ParseAigerBinError {
            offset: *pos,
            message: "unexpected end of file in delta code".to_string(),
        })?;
        *pos += 1;
        value |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 28 {
            return Err(ParseAigerBinError {
                offset: *pos,
                message: "delta code too long".to_string(),
            });
        }
    }
}

fn write_delta(out: &mut Vec<u8>, mut value: u32) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The most inputs a binary AIGER header may declare.
///
/// Binary inputs are implicit — no byte of the file stands for one — so
/// unlike the latch, output and AND counts, the input count `I` is not
/// bounded by the file length. Without a ceiling a 32-byte header could
/// demand a literal table of billions of entries and abort the process
/// on allocation, which no caller (a daemon least of all) can recover
/// from. Loading a header-only file at the ceiling peaks at about
/// 83 MB; real benchmark circuits stay orders of magnitude below it.
pub const MAX_BINARY_AIGER_INPUTS: u32 = 1 << 20;

/// Parses a **binary** AIGER (`aig`) file — the format real benchmark
/// distributions use. Supports the latch-initialization extension and
/// the `i`/`l`/`o` symbol table.
///
/// # Errors
///
/// Returns [`ParseAigerBinError`] on malformed headers or delta codes,
/// on a header declaring more than [`MAX_BINARY_AIGER_INPUTS`] inputs,
/// and on an AND whose first delta is zero (AIGER requires
/// `lhs > rhs0 ≥ rhs1`).
pub fn parse_aiger_binary(data: &[u8]) -> Result<Aig, ParseAigerBinError> {
    let err = |offset: usize, message: String| ParseAigerBinError { offset, message };
    // Header line is ASCII.
    let hdr_end = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| err(0, "missing header line".to_string()))?;
    let header =
        std::str::from_utf8(&data[..hdr_end]).map_err(|_| err(0, "non-UTF8 header".to_string()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aig" {
        return Err(err(0, "expected header `aig M I L O A`".to_string()));
    }
    let parse_num = |s: &str| -> Result<u32, ParseAigerBinError> {
        s.parse()
            .map_err(|_| err(0, format!("invalid number `{s}`")))
    };
    let m = parse_num(fields[1])?;
    let ni = parse_num(fields[2])?;
    let nl = parse_num(fields[3])?;
    let no = parse_num(fields[4])?;
    let na = parse_num(fields[5])?;
    // Summed in u64 so that a wrapping sum cannot match `M`.
    let sum = u64::from(ni) + u64::from(nl) + u64::from(na);
    if u64::from(m) != sum {
        return Err(err(0, format!("M = {m} but I+L+A = {sum}")));
    }
    if ni > MAX_BINARY_AIGER_INPUTS {
        return Err(err(
            0,
            format!("I = {ni} exceeds the input ceiling of {MAX_BINARY_AIGER_INPUTS}"),
        ));
    }
    let mut pos = hdr_end + 1;
    // Inputs are implicit, but every latch and output line holds a
    // digit and a newline and every AND two delta codes of at least a
    // byte each: a header promising more than the rest of the file can
    // hold is rejected before any buffer is sized by its counts.
    let rest = (data.len() - pos) as u64;
    let promised = u64::from(nl) + u64::from(no) + u64::from(na);
    if 2 * promised > rest {
        return Err(err(
            pos,
            format!(
                "header promises {promised} latches, outputs and ANDs but only {rest} bytes follow"
            ),
        ));
    }

    // Inputs are implicit. Latch and output lines are ASCII. Returns
    // the line's *start* offset alongside its text so parse errors can
    // point at the offending token rather than wherever `pos` has
    // advanced to.
    let take_line = |pos: &mut usize| -> Result<(usize, String), ParseAigerBinError> {
        let start = *pos;
        let end = data[start..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| err(start, "unexpected end of file".to_string()))?;
        let line = std::str::from_utf8(&data[start..start + end])
            .map_err(|_| err(start, "non-UTF8 line".to_string()))?
            .to_string();
        *pos = start + end + 1;
        Ok((start, line))
    };
    // Byte offset of a token borrowed from its line.
    let tok_off = |line_start: usize, line: &str, tok: &str| -> usize {
        line_start + (tok.as_ptr() as usize - line.as_ptr() as usize)
    };

    let mut aig = Aig::new();
    let mut lits: Vec<Lit> = Vec::with_capacity(m as usize + 1);
    lits.push(Lit::FALSE);
    for k in 0..ni {
        lits.push(aig.add_input(format!("i{k}")).lit());
    }
    let mut latch_vars = Vec::with_capacity(nl as usize);
    let mut latch_nexts: Vec<(u32, usize)> = Vec::with_capacity(nl as usize);
    for _ in 0..nl {
        let (at, line) = take_line(&mut pos)?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.is_empty() || f.len() > 2 {
            return Err(err(at, "latch line must be `next [init]`".to_string()));
        }
        let next: u32 = f[0].parse().map_err(|_| {
            err(
                tok_off(at, &line, f[0]),
                format!("bad latch next `{}`", f[0]),
            )
        })?;
        let init = f.len() == 2 && f[1] == "1";
        let v = aig.add_latch(init);
        lits.push(v.lit());
        latch_vars.push(v);
        latch_nexts.push((next, tok_off(at, &line, f[0])));
    }
    let mut output_lits: Vec<(u32, usize)> = Vec::with_capacity(no as usize);
    for _ in 0..no {
        let (at, line) = take_line(&mut pos)?;
        let tok = line.trim();
        output_lits.push((
            tok.parse().map_err(|_| {
                err(
                    tok_off(at, &line, tok),
                    format!("bad output literal `{line}`"),
                )
            })?,
            tok_off(at, &line, tok),
        ));
    }
    // AND gates: delta-coded, lhs implicit.
    for k in 0..na {
        let lhs = 2 * (ni + nl + k + 1);
        let at = pos;
        let d0 = read_delta(data, &mut pos)?;
        if d0 == 0 {
            // `rhs0 == lhs` would make the gate its own fanin.
            return Err(err(at, format!("AND {lhs} has a zero delta0")));
        }
        let d1 = read_delta(data, &mut pos)?;
        let rhs0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| err(pos, "delta0 exceeds lhs".to_string()))?;
        let rhs1 = rhs0
            .checked_sub(d1)
            .ok_or_else(|| err(pos, "delta1 exceeds rhs0".to_string()))?;
        let la = lits[(rhs0 >> 1) as usize].complement_if(rhs0 & 1 == 1);
        let lb = lits[(rhs1 >> 1) as usize].complement_if(rhs1 & 1 == 1);
        lits.push(aig.and(la, lb));
    }
    for (i, &(next, at)) in latch_nexts.iter().enumerate() {
        if (next >> 1) as usize >= lits.len() {
            return Err(err(at, format!("latch next literal {next} out of range")));
        }
        let l = lits[(next >> 1) as usize].complement_if(next & 1 == 1);
        aig.set_latch_next(latch_vars[i], l);
    }
    for (k, &(o, at)) in output_lits.iter().enumerate() {
        if (o >> 1) as usize >= lits.len() {
            return Err(err(at, format!("output literal {o} out of range")));
        }
        let l = lits[(o >> 1) as usize].complement_if(o & 1 == 1);
        aig.add_output(l, format!("o{k}"));
    }
    // Symbol table (ASCII), same syntax as the aag format.
    while pos < data.len() {
        let Ok((_, line)) = take_line(&mut pos) else {
            break;
        };
        let mut chars = line.chars();
        let kind = match chars.next() {
            Some(c @ ('i' | 'l' | 'o')) => c,
            _ => break,
        };
        let rest: String = chars.collect();
        let Some((idx, name)) = rest.split_once(' ') else {
            continue;
        };
        let Ok(idx) = idx.parse::<usize>() else {
            continue;
        };
        match kind {
            'i' => {
                if let Some(&v) = aig.inputs().get(idx) {
                    aig.set_name(v, name);
                }
            }
            'l' => {
                if let Some(&v) = aig.latches().get(idx) {
                    aig.set_name(v, name);
                }
            }
            'o' if idx < aig.num_outputs() => {
                aig.rename_output(idx, name);
            }
            _ => {}
        }
    }
    Ok(aig)
}

/// Writes a circuit in **binary** AIGER (`aig`) format.
pub fn write_aiger_binary(aig: &Aig) -> Vec<u8> {
    let ni = aig.num_inputs() as u32;
    let nl = aig.num_latches() as u32;
    let na = aig.num_ands() as u32;
    let no = aig.num_outputs() as u32;
    let m = ni + nl + na;

    let mut newvar: Vec<u32> = vec![0; aig.num_nodes()];
    let mut next_id = 1u32;
    for &v in aig.inputs() {
        newvar[v.index()] = next_id;
        next_id += 1;
    }
    for &v in aig.latches() {
        newvar[v.index()] = next_id;
        next_id += 1;
    }
    for v in aig.and_vars() {
        newvar[v.index()] = next_id;
        next_id += 1;
    }
    let enc = |l: Lit| -> u32 { (newvar[l.var().index()] << 1) | l.is_complemented() as u32 };

    let mut out: Vec<u8> = Vec::new();
    out.extend_from_slice(format!("aig {m} {ni} {nl} {no} {na}\n").as_bytes());
    for &v in aig.latches() {
        let next = aig
            .latch_next(v)
            .expect("write_aiger_binary requires driven latches");
        let init = aig.latch_init(v) as u32;
        out.extend_from_slice(format!("{} {init}\n", enc(next)).as_bytes());
    }
    for o in aig.outputs() {
        out.extend_from_slice(format!("{}\n", enc(o.lit)).as_bytes());
    }
    for v in aig.and_vars() {
        let (a, b) = aig.and_fanins(v);
        let lhs = newvar[v.index()] << 1;
        let (rhs0, rhs1) = if enc(a) >= enc(b) {
            (enc(a), enc(b))
        } else {
            (enc(b), enc(a))
        };
        debug_assert!(lhs > rhs0 && rhs0 >= rhs1);
        write_delta(&mut out, lhs - rhs0);
        write_delta(&mut out, rhs0 - rhs1);
    }
    for (k, &v) in aig.inputs().iter().enumerate() {
        if let Some(n) = aig.name(v) {
            out.extend_from_slice(format!("i{k} {n}\n").as_bytes());
        }
    }
    for (k, &v) in aig.latches().iter().enumerate() {
        if let Some(n) = aig.name(v) {
            out.extend_from_slice(format!("l{k} {n}\n").as_bytes());
        }
    }
    for (k, o) in aig.outputs().iter().enumerate() {
        if let Some(n) = &o.name {
            out.extend_from_slice(format!("o{k} {n}\n").as_bytes());
        }
    }
    out
}

#[cfg(test)]
mod binary_tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a").lit();
        let b = aig.add_input("b").lit();
        let l = aig.add_latch(true);
        let f = aig.xor(a, l.lit());
        let g = aig.and(f, b);
        aig.set_latch_next(l, g);
        aig.add_output(!g, "out");
        aig
    }

    #[test]
    fn binary_roundtrip() {
        let aig = sample();
        let bytes = write_aiger_binary(&aig);
        let back = parse_aiger_binary(&bytes).unwrap();
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_latches(), aig.num_latches());
        assert_eq!(back.num_ands(), aig.num_ands());
        assert!(back.latch_init(back.latches()[0]));
        assert_eq!(back.name(back.inputs()[1]), Some("b"));
    }

    #[test]
    fn delta_codes_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 1 << 20, u32::MAX / 2] {
            let mut buf = Vec::new();
            write_delta(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_delta(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    /// Regression: parse errors on latch/output lines must point at the
    /// *start* of the offending token, not at the end of the line that
    /// `pos` had already advanced past.
    #[test]
    fn error_offsets_point_at_token_starts() {
        // Offsets:       0123456789012345678
        let bad_output = b"aig 1 1 0 1 0\nboom\n";
        let e = parse_aiger_binary(bad_output).unwrap_err();
        assert!(e.message.contains("bad output literal"), "{e}");
        assert_eq!(e.offset, 14, "{e}");

        //                 01234567890123456789
        let bad_latch = b"aig 3 1 1 0 1\n  zap 1\n";
        let e = parse_aiger_binary(bad_latch).unwrap_err();
        assert!(e.message.contains("bad latch next"), "{e}");
        assert_eq!(e.offset, 16, "{e}");

        // Out-of-range output literal: the offset is the token's, even
        // though the range check runs after all lines were consumed.
        let out_of_range = b"aig 1 1 0 1 0\n99\n";
        let e = parse_aiger_binary(out_of_range).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!(e.offset, 14, "{e}");
    }

    #[test]
    fn binary_matches_ascii_semantics() {
        use sec_sim_compat::check_equal_behaviour;
        let aig = sample();
        let via_bin = parse_aiger_binary(&write_aiger_binary(&aig)).unwrap();
        let via_ascii = parse_aiger(&write_aiger(&aig)).unwrap();
        check_equal_behaviour(&via_bin, &via_ascii);
    }

    /// Behaviour comparison without depending on sec-sim (which would be
    /// a dependency cycle): exhaustive two-frame evaluation.
    mod sec_sim_compat {
        use crate::{Aig, Node};

        fn eval(aig: &Aig, inputs: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
            let mut vals = vec![false; aig.num_nodes()];
            for v in aig.vars() {
                vals[v.index()] = match aig.node(v) {
                    Node::Const => false,
                    Node::Input { index } => inputs[*index as usize],
                    Node::Latch { index, .. } => state[*index as usize],
                    Node::And { a, b } => {
                        (vals[a.var().index()] ^ a.is_complemented())
                            && (vals[b.var().index()] ^ b.is_complemented())
                    }
                };
            }
            let outs = aig
                .outputs()
                .iter()
                .map(|o| vals[o.lit.var().index()] ^ o.lit.is_complemented())
                .collect();
            let next = aig
                .latches()
                .iter()
                .map(|&l| {
                    let n = aig.latch_next(l).unwrap();
                    vals[n.var().index()] ^ n.is_complemented()
                })
                .collect();
            (outs, next)
        }

        pub fn check_equal_behaviour(a: &Aig, b: &Aig) {
            let ni = a.num_inputs();
            let nl = a.num_latches();
            for bits in 0..1u32 << (ni + nl) {
                let inputs: Vec<bool> = (0..ni).map(|i| bits >> i & 1 != 0).collect();
                let state: Vec<bool> = (0..nl).map(|i| bits >> (ni + i) & 1 != 0).collect();
                assert_eq!(eval(a, &inputs, &state), eval(b, &inputs, &state));
            }
        }
    }
}

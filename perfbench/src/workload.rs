//! The four workloads: how their requests are made from the seed, and how
//! every response is checked against a computation made apart from the
//! program (the composition's own functions are never run for a check).

use std::collections::HashMap;

use dandelion_apps::{image, phases};
use dandelion_common::rng::SplitMix64;
use dandelion_common::{DataItem, DataSet};
use dandelion_isolation::output_parser;

use crate::png;

/// Phases of the `chain` composition.
pub const CHAIN_PHASES: usize = 8;
/// Side of the square `bulk` image.
pub const IMAGE_SIDE: u32 = 512;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Tiny,
    Chain,
    Bulk,
    Gateway,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "tiny" => Kind::Tiny,
            "chain" => Kind::Chain,
            "bulk" => Kind::Bulk,
            "gateway" => Kind::Gateway,
            _ => return None,
        })
    }

    pub fn composition(self) -> &'static str {
        match self {
            Kind::Tiny | Kind::Gateway => "MatMulApp",
            Kind::Chain => "FetchCompute8",
            Kind::Bulk => "CompressImageApp",
        }
    }

    /// Invocations kept in flight by the closed loop. Small and fixed:
    /// saturating the 2-core reference host made every figure swing by
    /// tens of percent between identical runs.
    pub fn in_flight(self) -> usize {
        match self {
            Kind::Bulk => 2,
            _ => 4,
        }
    }

    /// Distinct requests generated per run; the closed loop cycles them.
    fn pool_size(self) -> usize {
        match self {
            Kind::Tiny | Kind::Gateway => 1024,
            Kind::Chain => 256,
            Kind::Bulk => 4,
        }
    }
}

/// What a correct response to one request holds.
pub enum Expect {
    /// `MatMulApp` on 1x1 matrices `[a]` and `[b]`.
    Product { a: i64, b: i64 },
    /// The `FinalStats` text of a phase chain.
    Stats(String),
    /// The square RGBA image the PNG must decode to.
    Pixels { side: u32, rgba: Vec<u8> },
}

pub struct Request {
    /// The exact bytes sent on the socket.
    pub wire: Vec<u8>,
    /// Where the body starts inside `wire`.
    pub body_at: usize,
    pub expect: Expect,
}

impl Request {
    fn new(composition: &str, content_type: Option<&str>, body: &[u8], expect: Expect) -> Self {
        let mut head = format!("POST /v1/invoke/{composition} HTTP/1.1\r\nHost: bench\r\n");
        if let Some(content_type) = content_type {
            head.push_str(&format!("Content-Type: {content_type}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut wire = head.into_bytes();
        let body_at = wire.len();
        wire.extend_from_slice(body);
        Request {
            wire,
            body_at,
            expect,
        }
    }

    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_at..]
    }
}

pub struct Workload {
    pub kind: Kind,
    pub requests: Vec<Request>,
    /// Node ids a `gateway` response may name; filled in once the cluster
    /// is up.
    pub members: Vec<String>,
}

fn matrix_1x1(value: i64) -> Vec<u8> {
    let mut out = 1u32.to_le_bytes().to_vec();
    out.extend_from_slice(&value.to_le_bytes());
    out
}

fn tiny_request(composition: &str, a: i64, b: i64) -> Request {
    let body = output_parser::encode_outputs(&[DataSet::with_items(
        "Matrices",
        vec![
            DataItem::new("a", matrix_1x1(a)),
            DataItem::new("b", matrix_1x1(b)),
        ],
    )]);
    Request::new(
        composition,
        Some(dandelion_core::frontend::SET_LIST_CONTENT_TYPE),
        &body,
        Expect::Product { a, b },
    )
}

/// One phase of the chain recomputed from the object store's data: the
/// reduction over every `len/1024`-th element and the next phase's key.
fn phase_stats(key: u64) -> (i64, i64, i64, u64) {
    let values: Vec<i64> = phases::array_object(key)
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let stride = (values.len() / phases::SAMPLE).max(1);
    let (mut sum, mut min, mut max) = (0i64, i64::MAX, i64::MIN);
    for &value in values.iter().step_by(stride) {
        sum += value;
        min = min.min(value);
        max = max.max(value);
    }
    (sum, min, max, sum.unsigned_abs() % 1000)
}

fn chain_expectation(start: u64, memo: &mut HashMap<u64, (i64, i64, i64, u64)>) -> String {
    let mut key = start;
    let mut stats = (0, 0, 0);
    for _ in 0..CHAIN_PHASES {
        let (sum, min, max, next) = *memo.entry(key).or_insert_with(|| phase_stats(key));
        stats = (sum, min, max);
        key = next;
    }
    format!("sum={} min={} max={}", stats.0, stats.1, stats.2)
}

/// A seeded gradient with per-pixel noise: neighbouring pixels differ by a
/// few levels, so QOI spends one or two bytes on most pixels and the body
/// is a few hundred KiB.
fn seeded_image(rng: &mut SplitMix64, side: u32) -> image::Image {
    let offsets = rng.next_u64().to_le_bytes();
    let mut pixels = Vec::with_capacity((side * side * 4) as usize);
    for y in 0..side {
        for x in 0..side {
            let noise = rng.next_u64();
            pixels.extend_from_slice(&[
                (x as u8)
                    .wrapping_add(offsets[0])
                    .wrapping_add((noise & 3) as u8),
                (y as u8)
                    .wrapping_add(offsets[1])
                    .wrapping_add((noise >> 2 & 3) as u8),
                (((x + y) / 2) as u8)
                    .wrapping_add(offsets[2])
                    .wrapping_add((noise >> 4 & 7) as u8),
                255,
            ]);
        }
    }
    image::Image {
        width: side,
        height: side,
        pixels,
    }
}

fn bulk_request(rng: &mut SplitMix64, side: u32) -> Request {
    let image = seeded_image(rng, side);
    let qoi = image::qoi_encode(&image);
    let expect = Expect::Pixels {
        side,
        rgba: image.pixels,
    };
    Request::new("CompressImageApp", None, &qoi, expect)
}

impl Workload {
    /// Generates the workload's requests from `seed`; the same seed gives
    /// the same requests.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut rng = SplitMix64::new(seed ^ 0x005E_ED0F_DA4D_E110);
        let mut memo = HashMap::new();
        let requests = (0..kind.pool_size())
            .map(|_| match kind {
                Kind::Tiny | Kind::Gateway => tiny_request(
                    kind.composition(),
                    rng.next_u64() as i64,
                    rng.next_u64() as i64,
                ),
                Kind::Chain => {
                    let start = rng.next_u64() % 1000;
                    let expect = Expect::Stats(chain_expectation(start, &mut memo));
                    Request::new(
                        kind.composition(),
                        None,
                        start.to_string().as_bytes(),
                        expect,
                    )
                }
                Kind::Bulk => bulk_request(&mut rng, IMAGE_SIDE),
            })
            .collect();
        Workload {
            kind,
            requests,
            members: Vec::new(),
        }
    }

    /// The invocation inputs of request `index`, as the frontend decodes
    /// them, for the in-process replays.
    pub fn inputs(&self, index: usize) -> Vec<DataSet> {
        let body = self.requests[index].body();
        match self.kind {
            Kind::Tiny | Kind::Gateway => {
                output_parser::parse_outputs(body).expect("the benchmark's own set list parses")
            }
            Kind::Chain => vec![DataSet::single("Phase0", body.to_vec())],
            Kind::Bulk => vec![DataSet::single("Qoi", body.to_vec())],
        }
    }

    /// Checks one response to request `index`.
    pub fn check(
        &self,
        index: usize,
        status: u16,
        node: Option<&str>,
        body: &[u8],
    ) -> Result<(), String> {
        check_status(status, body)?;
        if self.kind == Kind::Gateway {
            self.check_node(node)?;
        }
        self.check_body(index, body)
    }

    /// A response through the gateway must name a joined member.
    pub fn check_node(&self, node: Option<&str>) -> Result<(), String> {
        let node = node.ok_or("no X-Dandelion-Node header")?;
        if !self.members.iter().any(|member| member == node) {
            return Err(format!("X-Dandelion-Node `{node}` is not a joined member"));
        }
        Ok(())
    }

    /// Checks an output payload (also used by the in-process replays,
    /// where there is no status line).
    pub fn check_body(&self, index: usize, body: &[u8]) -> Result<(), String> {
        match &self.requests[index].expect {
            Expect::Product { a, b } => {
                if body != matrix_1x1(a.wrapping_mul(*b)).as_slice() {
                    return Err(format!("wrong product for {a} x {b}: {body:?}"));
                }
            }
            Expect::Stats(expected) => {
                if body != expected.as_bytes() {
                    return Err(format!(
                        "chain stats `{}`, expected `{expected}`",
                        String::from_utf8_lossy(body)
                    ));
                }
            }
            Expect::Pixels { side, rgba } => {
                let decoded = png::decode(body)?;
                if (decoded.width, decoded.height) != (*side, *side) {
                    return Err(format!("PNG is {}x{}", decoded.width, decoded.height));
                }
                if decoded.rgba != *rgba {
                    return Err("PNG pixels differ from the generated image".into());
                }
            }
        }
        Ok(())
    }
}

pub fn check_status(status: u16, body: &[u8]) -> Result<(), String> {
    if status == 200 {
        return Ok(());
    }
    Err(format!(
        "status {status}: {}",
        String::from_utf8_lossy(&body[..body.len().min(200)])
    ))
}

/// Feeds every checker a correct response and corrupted ones; a checker
/// that accepts a corruption makes the benchmark refuse to run.
pub fn self_test() -> Result<(), String> {
    let expect_fail = |what: &str, result: Result<(), String>| match result {
        Ok(()) => Err(format!("self-test: checker accepted {what}")),
        Err(_) => Ok(()),
    };
    let expect_pass = |what: &str, result: Result<(), String>| {
        result.map_err(|error| format!("self-test: checker rejected {what}: {error}"))
    };

    let mut gateway = Workload::generate(Kind::Gateway, 7);
    gateway.members = vec!["node-1".into(), "node-2".into()];
    let Expect::Product { a, b } = gateway.requests[0].expect else {
        unreachable!("gateway requests are matmul requests")
    };
    let product = matrix_1x1(a.wrapping_mul(b));
    expect_pass(
        "a correct product",
        gateway.check(0, 200, Some("node-2"), &product),
    )?;
    let mut wrong = product.clone();
    wrong[11] ^= 0x40;
    expect_fail(
        "a wrong product",
        gateway.check(0, 200, Some("node-1"), &wrong),
    )?;
    expect_fail("a 500", gateway.check(0, 500, Some("node-1"), &product))?;
    expect_fail(
        "an unknown node",
        gateway.check(0, 200, Some("node-9"), &product),
    )?;
    expect_fail("a missing node", gateway.check(0, 200, None, &product))?;

    let chain = Workload {
        kind: Kind::Chain,
        requests: vec![Request::new(
            "FetchCompute8",
            None,
            b"3",
            Expect::Stats(chain_expectation(3, &mut HashMap::new())),
        )],
        members: Vec::new(),
    };
    let Expect::Stats(stats) = &chain.requests[0].expect else {
        unreachable!("chain requests expect stats")
    };
    expect_pass(
        "correct chain stats",
        chain.check(0, 200, None, stats.as_bytes()),
    )?;
    let altered = stats.replacen("min=", "min=1", 1);
    expect_fail(
        "altered chain stats",
        chain.check(0, 200, None, altered.as_bytes()),
    )?;

    // A small image keeps the self-test cheap; the reader is size-agnostic.
    let bulk = Workload {
        kind: Kind::Bulk,
        requests: vec![bulk_request(&mut SplitMix64::new(7), 16)],
        members: Vec::new(),
    };
    let Expect::Pixels { side, rgba } = &bulk.requests[0].expect else {
        unreachable!("bulk requests expect pixels")
    };
    let source = image::Image {
        width: *side,
        height: *side,
        pixels: rgba.clone(),
    };
    let good = image::png_encode(&source);
    expect_pass("a correct PNG", bulk.check(0, 200, None, &good))?;
    // A flipped pixel byte breaks the IDAT CRC.
    let mut flipped = good.clone();
    let last = flipped.len() - 30;
    flipped[last] ^= 1;
    expect_fail("a PNG with a bad CRC", bulk.check(0, 200, None, &flipped))?;
    // A different image encoded validly fails the pixel comparison.
    let mut other = source.clone();
    other.pixels[5] ^= 0x80;
    expect_fail(
        "a valid PNG of another image",
        bulk.check(0, 200, None, &image::png_encode(&other)),
    )?;
    expect_fail(
        "a truncated PNG",
        bulk.check(0, 200, None, &good[..good.len() - 13]),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn checkers_reject_corrupted_responses() {
        super::self_test().unwrap();
    }
}

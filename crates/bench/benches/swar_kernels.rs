//! Criterion bench: the kernel tier matrix — scalar reference, portable
//! SWAR, and the SSE2/AVX2 `core::arch` implementations — on the per-plane
//! measurements and decompositions the performance simulator runs for every
//! layer of every sweep cell. Each group benches every tier the host
//! supports, with the tier name in the benchmark id, so a single run shows
//! the speedup ladder (`scalar` → `swar` → `sse2` → `avx2`) per kernel:
//! the zero-digit and zero-sub-word counts, the one-pass `plane_counts`
//! (with the RLE codec's own `compress` beside it as a reference row), and
//! the SBR and conventional decompositions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sibia_compress::RleCodec;
use sibia_sbr::kernels::supported_ops;
use sibia_sbr::subword::to_subwords;
use sibia_sbr::Precision;

/// A 64k-digit plane at roughly `zeros_in_10/10` zero fraction.
fn plane(zeros_in_10: u64) -> Vec<i8> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..65_536)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 30) % 10 < zeros_in_10 {
                0
            } else {
                ((x >> 50) % 7 + 1) as i8
            }
        })
        .collect()
}

/// A 64k-value tensor in the 7-bit symmetric range, ~30% exact zeros.
fn values() -> Vec<i32> {
    let mut x = 0x0123_4567_89AB_CDEFu64;
    (0..65_536)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 29) % 10 < 3 {
                0
            } else {
                ((x >> 40) % 127) as i32 - 63
            }
        })
        .collect()
}

fn bench_zero_digits(c: &mut Criterion) {
    let p = plane(8);
    let mut g = c.benchmark_group("zero_digits_64k");
    for ops in supported_ops() {
        g.bench_function(ops.tier.name(), |b| {
            b.iter(|| black_box(ops.zero_digit_count(black_box(&p))))
        });
    }
    g.finish();
}

fn bench_zero_subwords(c: &mut Criterion) {
    let p = plane(8);
    let mut g = c.benchmark_group("zero_subwords_64k");
    g.bench_function("scalar_vec_subword", |b| {
        b.iter(|| {
            let sw = to_subwords(black_box(&p));
            black_box(sw.iter().filter(|s| s.is_zero()).count())
        })
    });
    for ops in supported_ops() {
        g.bench_function(ops.tier.name(), |b| {
            b.iter(|| black_box(ops.zero_subword_count(black_box(&p))))
        });
    }
    g.finish();
}

fn bench_plane_counts(c: &mut Criterion) {
    // The simulator's hot path: zero digits + zero sub-words + RLE entries
    // in one pass over the raw plane. The codec row builds the sub-word
    // vector and the RLE stream the count stands for.
    let mut g = c.benchmark_group("plane_counts_64k");
    let codec = RleCodec::default();
    for zeros_in_10 in [2u64, 8] {
        let p = plane(zeros_in_10);
        g.bench_function(format!("codec_compress/z{zeros_in_10}"), |b| {
            b.iter(|| {
                let sw = to_subwords(black_box(&p));
                black_box(codec.compress(&sw).entries().len())
            })
        });
        for ops in supported_ops() {
            g.bench_function(format!("{}/z{zeros_in_10}", ops.tier.name()), |b| {
                b.iter(|| black_box(ops.plane_counts(black_box(&p), 4)))
            });
        }
    }
    g.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let v = values();
    let mut g = c.benchmark_group("decompose_64k");
    for ops in supported_ops() {
        g.bench_function(format!("sbr/{}", ops.tier.name()), |b| {
            b.iter(|| black_box(ops.sbr_planes(black_box(&v), Precision::BITS7)))
        });
        g.bench_function(format!("conv/{}", ops.tier.name()), |b| {
            b.iter(|| black_box(ops.conv_planes(black_box(&v), Precision::BITS7)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_zero_digits,
    bench_zero_subwords,
    bench_plane_counts,
    bench_decompose
);
criterion_main!(benches);

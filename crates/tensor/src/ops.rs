//! Bit-exact integer reference operators.
//!
//! These are the ground-truth semantics of the MAC-based operations every
//! simulated datapath must reproduce. Inputs are quantized `i32` codes;
//! outputs accumulate in `i64` so no reference result ever wraps.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Convolution hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Spatial stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Self {
            stride: 1,
            padding: 0,
        }
    }
}

/// Matrix multiplication: `[M×K] · [K×N] → [M×N]`.
///
/// # Panics
///
/// Panics if the operands are not rank-2 or the inner dimensions differ.
pub fn matmul(a: &Tensor<i32>, b: &Tensor<i32>) -> Tensor<i64> {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "inner dimensions must match: {k} vs {k2}");
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = i64::from(a.data()[i * k + p]);
            if av == 0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * i64::from(b.data()[p * n + j]);
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[m, n]))
}

/// 2-D convolution in CHW layout.
///
/// `input` is `[C_in, H, W]`, `weight` is `[C_out, C_in, KH, KW]`; the
/// output is `[C_out, H_out, W_out]` with
/// `H_out = (H + 2·pad − KH) / stride + 1`.
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if the kernel does not fit the
/// padded input.
pub fn conv2d(input: &Tensor<i32>, weight: &Tensor<i32>, params: Conv2dParams) -> Tensor<i64> {
    assert_eq!(input.shape().rank(), 3, "conv2d input must be [C,H,W]");
    assert_eq!(
        weight.shape().rank(),
        4,
        "conv2d weight must be [Co,Ci,KH,KW]"
    );
    let (ci, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (co, ci2, kh, kw) = (
        weight.shape().dim(0),
        weight.shape().dim(1),
        weight.shape().dim(2),
        weight.shape().dim(3),
    );
    assert_eq!(ci, ci2, "input channels must match weight channels");
    let (ph, pw) = (h + 2 * params.padding, w + 2 * params.padding);
    assert!(kh <= ph && kw <= pw, "kernel larger than padded input");
    let ho = (ph - kh) / params.stride + 1;
    let wo = (pw - kw) / params.stride + 1;
    let mut out = vec![0i64; co * ho * wo];
    let iw = input.data();
    let ww = weight.data();
    for oc in 0..co {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut acc = 0i64;
                for ic in 0..ci {
                    for ky in 0..kh {
                        let iy = oy * params.stride + ky;
                        if iy < params.padding || iy >= h + params.padding {
                            continue;
                        }
                        let iy = iy - params.padding;
                        for kx in 0..kw {
                            let ix = ox * params.stride + kx;
                            if ix < params.padding || ix >= w + params.padding {
                                continue;
                            }
                            let ix = ix - params.padding;
                            let iv = iw[(ic * h + iy) * w + ix];
                            let wv = ww[((oc * ci + ic) * kh + ky) * kw + kx];
                            acc += i64::from(iv) * i64::from(wv);
                        }
                    }
                }
                out[(oc * ho + oy) * wo + ox] = acc;
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[co, ho, wo]))
}

/// Lowers a CHW input into the im2col matrix `[C_in·KH·KW, H_out·W_out]`
/// so that `conv2d(x, w) == matmul(w_flat, im2col(x))`.
///
/// # Panics
///
/// Panics if `input` is not rank 3 or the kernel does not fit.
pub fn im2col(input: &Tensor<i32>, kernel: (usize, usize), params: Conv2dParams) -> Tensor<i32> {
    assert_eq!(input.shape().rank(), 3, "im2col input must be [C,H,W]");
    let (ci, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (kh, kw) = kernel;
    let (ph, pw) = (h + 2 * params.padding, w + 2 * params.padding);
    assert!(kh <= ph && kw <= pw, "kernel larger than padded input");
    let ho = (ph - kh) / params.stride + 1;
    let wo = (pw - kw) / params.stride + 1;
    let rows = ci * kh * kw;
    let cols = ho * wo;
    let mut out = vec![0i32; rows * cols];
    let data = input.data();
    for ic in 0..ci {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ic * kh + ky) * kw + kx;
                for oy in 0..ho {
                    for ox in 0..wo {
                        let iy = oy * params.stride + ky;
                        let ix = ox * params.stride + kx;
                        let v = if iy < params.padding
                            || iy >= h + params.padding
                            || ix < params.padding
                            || ix >= w + params.padding
                        {
                            0
                        } else {
                            data[(ic * h + (iy - params.padding)) * w + (ix - params.padding)]
                        };
                        out[row * cols + oy * wo + ox] = v;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[rows, cols]))
}

/// 2-D max pooling over a CHW tensor with a square window and equal stride.
///
/// # Panics
///
/// Panics if the window does not fit the input.
pub fn maxpool2d(input: &Tensor<i64>, window: usize) -> Tensor<i64> {
    assert_eq!(input.shape().rank(), 3, "maxpool2d input must be [C,H,W]");
    let (c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    assert!(window >= 1 && window <= h && window <= w, "window must fit");
    let ho = h / window;
    let wo = w / window;
    let mut out = vec![i64::MIN; c * ho * wo];
    let data = input.data();
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                let mut m = i64::MIN;
                for ky in 0..window {
                    for kx in 0..window {
                        m = m.max(data[(ch * h + oy * window + ky) * w + ox * window + kx]);
                    }
                }
                out[(ch * ho + oy) * wo + ox] = m;
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[c, ho, wo]))
}

/// Transposes a rank-2 tensor.
///
/// # Panics
///
/// Panics if `input` is not rank 2.
pub fn transpose<T: Copy + Default>(input: &Tensor<T>) -> Tensor<T> {
    assert_eq!(input.shape().rank(), 2, "transpose input must be rank 2");
    let (m, n) = (input.shape().dim(0), input.shape().dim(1));
    let mut out = vec![T::default(); m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = input.data()[i * n + j];
        }
    }
    Tensor::from_vec(out, Shape::new(&[n, m]))
}

/// Zero-pads a CHW tensor spatially by `pad` on all sides.
///
/// # Panics
///
/// Panics if `input` is not rank 3.
pub fn pad2d(input: &Tensor<i32>, pad: usize) -> Tensor<i32> {
    assert_eq!(input.shape().rank(), 3, "pad2d input must be [C,H,W]");
    let (c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let mut out = vec![0i32; c * ph * pw];
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                out[(ch * ph + y + pad) * pw + x + pad] = input.data()[(ch * h + y) * w + x];
            }
        }
    }
    Tensor::from_vec(out, Shape::new(&[c, ph, pw]))
}

/// Batched matrix multiplication: `[B, M, K] · [B, K, N] → [B, M, N]`
/// (the per-head attention matmuls of transformer blocks).
///
/// # Panics
///
/// Panics on rank or dimension mismatches.
pub fn batched_matmul(a: &Tensor<i32>, b: &Tensor<i32>) -> Tensor<i64> {
    assert_eq!(a.shape().rank(), 3, "batched lhs must be rank 3");
    assert_eq!(b.shape().rank(), 3, "batched rhs must be rank 3");
    let (ba, m, k) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let (bb, k2, n) = (b.shape().dim(0), b.shape().dim(1), b.shape().dim(2));
    assert_eq!(ba, bb, "batch sizes must match");
    assert_eq!(k, k2, "inner dimensions must match");
    let mut out = vec![0i64; ba * m * n];
    for batch in 0..ba {
        let am = Tensor::from_vec(
            a.data()[batch * m * k..(batch + 1) * m * k].to_vec(),
            Shape::new(&[m, k]),
        );
        let bm = Tensor::from_vec(
            b.data()[batch * k * n..(batch + 1) * k * n].to_vec(),
            Shape::new(&[k, n]),
        );
        out[batch * m * n..(batch + 1) * m * n].copy_from_slice(matmul(&am, &bm).data());
    }
    Tensor::from_vec(out, Shape::new(&[ba, m, n]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1, 0, 0, 1], Shape::new(&[2, 2]));
        let b = Tensor::from_vec(vec![3, -4, 5, 6], Shape::new(&[2, 2]));
        assert_eq!(matmul(&a, &b).data(), &[3, -4, 5, 6]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1, 2, 3, 4, 5, 6], Shape::new(&[2, 3]));
        let b = Tensor::from_vec(vec![7, 8, 9, 10, 11, 12], Shape::new(&[3, 2]));
        assert_eq!(matmul(&a, &b).data(), &[58, 64, 139, 154]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_validates_dims() {
        let a = Tensor::from_vec(vec![1, 2], Shape::new(&[1, 2]));
        let b = Tensor::from_vec(vec![1, 2, 3], Shape::new(&[3, 1]));
        let _ = matmul(&a, &b);
    }

    #[test]
    fn conv2d_single_pixel_kernel() {
        // 1×1 kernel scales channels.
        let x = Tensor::from_vec(vec![1, 2, 3, 4], Shape::new(&[1, 2, 2]));
        let w = Tensor::from_vec(vec![3], Shape::new(&[1, 1, 1, 1]));
        let y = conv2d(&x, &w, Conv2dParams::default());
        assert_eq!(y.data(), &[3, 6, 9, 12]);
    }

    #[test]
    fn conv2d_sums_window() {
        let x = Tensor::from_vec(vec![1, 2, 3, 4, 5, 6, 7, 8, 9], Shape::new(&[1, 3, 3]));
        let w = Tensor::from_vec(vec![1; 4], Shape::new(&[1, 1, 2, 2]));
        let y = conv2d(&x, &w, Conv2dParams::default());
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[12, 16, 24, 28]);
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let x = Tensor::from_vec(vec![1, 2, 3, 4], Shape::new(&[1, 2, 2]));
        let w = Tensor::from_vec(vec![1; 9], Shape::new(&[1, 1, 3, 3]));
        let y = conv2d(
            &x,
            &w,
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
        );
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
        // Each output sums the in-bounds neighbourhood.
        assert_eq!(y.data(), &[10, 10, 10, 10]);
        let ys = conv2d(
            &x,
            &w,
            Conv2dParams {
                stride: 2,
                padding: 1,
            },
        );
        assert_eq!(ys.shape().dims(), &[1, 1, 1]);
        assert_eq!(ys.data(), &[10]);
    }

    #[test]
    fn conv2d_multichannel_accumulates() {
        let x = Tensor::from_vec(vec![1, 2, 3, 4], Shape::new(&[2, 1, 2]));
        let w = Tensor::from_vec(vec![1, 1, -1, -1], Shape::new(&[2, 2, 1, 1]));
        let y = conv2d(&x, &w, Conv2dParams::default());
        assert_eq!(y.shape().dims(), &[2, 1, 2]);
        assert_eq!(y.data(), &[4, 6, -4, -6]);
    }

    #[test]
    fn im2col_matches_conv2d() {
        let x = Tensor::from_vec((1..=18).collect(), Shape::new(&[2, 3, 3]));
        let w = Tensor::from_vec(vec![1, -1, 2, -2, 3, -3, 4, -4], Shape::new(&[1, 2, 2, 2]));
        let params = Conv2dParams {
            stride: 1,
            padding: 1,
        };
        let direct = conv2d(&x, &w, params);
        let cols = im2col(&x, (2, 2), params);
        let wf = Tensor::from_vec(w.data().to_vec(), Shape::new(&[1, 8]));
        let viac = matmul(&wf, &cols);
        assert_eq!(direct.data(), viac.data());
    }

    #[test]
    fn maxpool2d_reduces_windows() {
        let x = Tensor::from_vec(
            vec![1, 5, 2, 0, -3, 4, 9, -1, 0, 0, 0, 0, 7, 7, 7, 7],
            Shape::new(&[1, 4, 4]),
        );
        let y = maxpool2d(&x, 2);
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[5, 9, 7, 7]);
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_vec((0..12).collect(), Shape::new(&[3, 4]));
        let tt = transpose(&transpose(&t));
        assert_eq!(tt.data(), t.data());
        assert_eq!(transpose(&t).shape().dims(), &[4, 3]);
        assert_eq!(*transpose(&t).at(&[2, 1]), *t.at(&[1, 2]));
    }

    #[test]
    fn pad2d_matches_conv_padding_semantics() {
        // conv2d with padding == conv2d of pad2d'd input with no padding.
        let x = Tensor::from_vec((1..=8).collect(), Shape::new(&[2, 2, 2]));
        let w = Tensor::from_vec(vec![1, -1, 2, -2, 3, -3, 4, -4], Shape::new(&[1, 2, 2, 2]));
        let with_pad = conv2d(
            &x,
            &w,
            Conv2dParams {
                stride: 1,
                padding: 1,
            },
        );
        let pre_padded = conv2d(&pad2d(&x, 1), &w, Conv2dParams::default());
        assert_eq!(with_pad.data(), pre_padded.data());
    }

    #[test]
    fn batched_matmul_matches_per_batch() {
        let a = Tensor::from_vec(
            (0..2 * 2 * 3).map(|i| i - 5).collect(),
            Shape::new(&[2, 2, 3]),
        );
        let b = Tensor::from_vec(
            (0..2 * 3 * 2).map(|i| i * 2 - 6).collect(),
            Shape::new(&[2, 3, 2]),
        );
        let batched = batched_matmul(&a, &b);
        for batch in 0..2 {
            let am = Tensor::from_vec(
                a.data()[batch * 6..(batch + 1) * 6].to_vec(),
                Shape::new(&[2, 3]),
            );
            let bm = Tensor::from_vec(
                b.data()[batch * 6..(batch + 1) * 6].to_vec(),
                Shape::new(&[3, 2]),
            );
            assert_eq!(
                &batched.data()[batch * 4..(batch + 1) * 4],
                matmul(&am, &bm).data()
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch sizes")]
    fn batched_matmul_validates_batches() {
        let a = Tensor::from_vec(vec![0; 6], Shape::new(&[2, 1, 3]));
        let b = Tensor::from_vec(vec![0; 3], Shape::new(&[1, 3, 1]));
        let _ = batched_matmul(&a, &b);
    }
}

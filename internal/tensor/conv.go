package tensor

import "fmt"

// ConvOutSize returns the output length of a convolution along one
// axis with input size n, kernel k, stride s and symmetric padding p.
func ConvOutSize(n, k, s, p int) int {
	return (n+2*p-k)/s + 1
}

// Im2Col unrolls a [C,H,W] tensor into a [C*KH*KW, OH*OW] matrix so
// that a 2-D convolution becomes a single matrix multiply with a
// weight matrix of shape [OC, C*KH*KW]. Out-of-bounds (padding)
// positions contribute zeros.
func Im2Col(x *Tensor, kh, kw, sh, sw, ph, pw int) (*Tensor, error) {
	if x.Rank() != 3 {
		return nil, fmt.Errorf("tensor: im2col needs [C,H,W] input, got %v", x.Shape)
	}
	c := x.Shape[0]
	oh := ConvOutSize(x.Shape[1], kh, sh, ph)
	ow := ConvOutSize(x.Shape[2], kw, sw, pw)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: im2col produces empty output for input %v kernel %dx%d", x.Shape, kh, kw)
	}
	cols := New(c*kh*kw, oh*ow)
	if err := Im2ColBatchInto(cols, x, 1, kh, kw, sh, sw, ph, pw); err != nil {
		return nil, err
	}
	return cols, nil
}

// Im2ColBatchInto unrolls a channel-major batch of 2-D planes into
// dst. x is logically [C,M,H,W] (rank 4; a rank-3 [C,H,W] tensor is
// accepted for m=1), where consecutive samples of one channel are
// contiguous — the layout every batched conv in this package produces.
// dst must be [C*KH*KW, M*OH*OW]; it is zeroed first, so padding
// positions are correct even when dst is a recycled scratch buffer.
// Sample m's columns occupy dst columns [m*OH*OW, (m+1)*OH*OW).
// Row blocks are filled in parallel on the bounded kernel pool.
func Im2ColBatchInto(dst, x *Tensor, m, kh, kw, sh, sw, ph, pw int) error {
	var c, h, w int
	switch {
	case x.Rank() == 4 && x.Shape[1] == m:
		c, h, w = x.Shape[0], x.Shape[2], x.Shape[3]
	case x.Rank() == 3 && m == 1:
		c, h, w = x.Shape[0], x.Shape[1], x.Shape[2]
	default:
		return fmt.Errorf("tensor: im2col batch needs [C,%d,H,W] input, got %v", m, x.Shape)
	}
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: im2col produces empty output for input %v kernel %dx%d", x.Shape, kh, kw)
	}
	rows, rowLen := c*kh*kw, m*oh*ow
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != rowLen {
		return fmt.Errorf("tensor: im2col dst shape %v, want [%d,%d]", dst.Shape, rows, rowLen)
	}
	dst.Zero()
	// The closure is built only when the job splits: an escaping
	// closure heap-allocates at creation even for calls that run
	// inline, and small frames must stay allocation-free.
	if ParallelChunks(rows, rowLen) <= 1 {
		im2colBatchRows(dst.Data, x.Data, m, h, w, kh, kw, sh, sw, ph, pw, oh, ow, rowLen, 0, rows)
	} else {
		ParallelFor(rows, rowLen, func(lo, hi int) {
			im2colBatchRows(dst.Data, x.Data, m, h, w, kh, kw, sh, sw, ph, pw, oh, ow, rowLen, lo, hi)
		})
	}
	return nil
}

// im2colBatchRows fills dst rows [lo, hi) of the batched column
// matrix — the chunk body of Im2ColBatchInto.
func im2colBatchRows(dst, x []float64, m, h, w, kh, kw, sh, sw, ph, pw, oh, ow, rowLen, lo, hi int) {
	for rowIdx := lo; rowIdx < hi; rowIdx++ {
		ci := rowIdx / (kh * kw)
		ki := rowIdx / kw % kh
		kj := rowIdx % kw
		row := dst[rowIdx*rowLen:]
		for mi := 0; mi < m; mi++ {
			plane := x[(ci*m+mi)*h*w:]
			out := row[mi*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				iy := oy*sh - ph + ki
				if iy < 0 || iy >= h {
					continue
				}
				src := plane[iy*w:]
				dstRow := out[oy*ow:]
				for ox := 0; ox < ow; ox++ {
					ix := ox*sw - pw + kj
					if ix >= 0 && ix < w {
						dstRow[ox] = src[ix]
					}
				}
			}
		}
	}
}

// Col2Im scatters a [C*KH*KW, OH*OW] column matrix back into a
// [C,H,W] tensor, accumulating overlapping contributions. It is the
// adjoint of Im2Col and is used by convolution backward passes.
func Col2Im(cols *Tensor, c, h, w, kh, kw, sh, sw, ph, pw int) (*Tensor, error) {
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	if cols.Rank() != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != oh*ow {
		return nil, fmt.Errorf("tensor: col2im shape %v incompatible with [%d,%d,%d] k=%dx%d", cols.Shape, c, h, w, kh, kw)
	}
	x := New(c, h, w)
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w : (ci+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := cols.Data[((ci*kh+ki)*kw+kj)*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*sh - ph + ki
					if iy < 0 || iy >= h {
						continue
					}
					dst := plane[iy*w:]
					src := row[oy*ow:]
					for ox := 0; ox < ow; ox++ {
						ix := ox*sw - pw + kj
						if ix >= 0 && ix < w {
							dst[ix] += src[ox]
						}
					}
				}
			}
		}
	}
	return x, nil
}

// Im2Col3D unrolls a [C,T,H,W] tensor into a
// [C*KT*KH*KW, OT*OH*OW] matrix for 3-D (spatio-temporal)
// convolution, the workhorse of the SlowFast and C3D video networks.
func Im2Col3D(x *Tensor, kt, kh, kw, st, sh, sw, pt, ph, pw int) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tensor: im2col3d needs [C,T,H,W] input, got %v", x.Shape)
	}
	c, tn := x.Shape[0], x.Shape[1]
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(x.Shape[2], kh, sh, ph)
	ow := ConvOutSize(x.Shape[3], kw, sw, pw)
	if ot <= 0 || oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: im2col3d produces empty output for input %v kernel %dx%dx%d", x.Shape, kt, kh, kw)
	}
	cols := New(c*kt*kh*kw, ot*oh*ow)
	if err := Im2Col3DBatchInto(cols, x, 1, kt, kh, kw, st, sh, sw, pt, ph, pw); err != nil {
		return nil, err
	}
	return cols, nil
}

// Im2Col3DBatchInto unrolls a channel-major batch of volumes into dst.
// x is logically [C,N,T,H,W] (rank 5; a rank-4 [C,T,H,W] tensor is
// accepted for n=1). dst must be [C*KT*KH*KW, N*OT*OH*OW]; it is
// zeroed first. Sample i's columns occupy dst columns
// [i*OT*OH*OW, (i+1)*OT*OH*OW). Row blocks fill in parallel on the
// bounded kernel pool.
func Im2Col3DBatchInto(dst, x *Tensor, n, kt, kh, kw, st, sh, sw, pt, ph, pw int) error {
	var c, tn, h, w int
	switch {
	case x.Rank() == 5 && x.Shape[1] == n:
		c, tn, h, w = x.Shape[0], x.Shape[2], x.Shape[3], x.Shape[4]
	case x.Rank() == 4 && n == 1:
		c, tn, h, w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	default:
		return fmt.Errorf("tensor: im2col3d batch needs [C,%d,T,H,W] input, got %v", n, x.Shape)
	}
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	if ot <= 0 || oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: im2col3d produces empty output for input %v kernel %dx%dx%d", x.Shape, kt, kh, kw)
	}
	rows, vol := c*kt*kh*kw, ot*oh*ow
	rowLen := n * vol
	if dst.Rank() != 2 || dst.Shape[0] != rows || dst.Shape[1] != rowLen {
		return fmt.Errorf("tensor: im2col3d dst shape %v, want [%d,%d]", dst.Shape, rows, rowLen)
	}
	dst.Zero()
	// Closure built only on the split path — see Im2ColBatchInto.
	if ParallelChunks(rows, rowLen) <= 1 {
		im2col3dBatchRows(dst.Data, x.Data, n, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, rowLen, 0, rows)
	} else {
		ParallelFor(rows, rowLen, func(lo, hi int) {
			im2col3dBatchRows(dst.Data, x.Data, n, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, rowLen, lo, hi)
		})
	}
	return nil
}

// im2col3dBatchRows fills dst rows [lo, hi) — the chunk body of
// Im2Col3DBatchInto.
func im2col3dBatchRows(dstData, xData []float64, n, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, rowLen, lo, hi int) {
	spat := h * w
	vol := ot * oh * ow
	for rowIdx := lo; rowIdx < hi; rowIdx++ {
		ci := rowIdx / (kt * kh * kw)
		kti := rowIdx / (kh * kw) % kt
		ki := rowIdx / kw % kh
		kj := rowIdx % kw
		row := dstData[rowIdx*rowLen:]
		for ni := 0; ni < n; ni++ {
			volSrc := xData[(ci*n+ni)*tn*spat:]
			out := row[ni*vol:]
			for otz := 0; otz < ot; otz++ {
				it := otz*st - pt + kti
				if it < 0 || it >= tn {
					continue
				}
				plane := volSrc[it*spat:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*sh - ph + ki
					if iy < 0 || iy >= h {
						continue
					}
					src := plane[iy*w:]
					dstRow := out[(otz*oh+oy)*ow:]
					for ox := 0; ox < ow; ox++ {
						ix := ox*sw - pw + kj
						if ix >= 0 && ix < w {
							dstRow[ox] = src[ix]
						}
					}
				}
			}
		}
	}
}

// Conv3DInto is the eval-mode 3-D convolution: out = w ⊛ x + b with no
// column matrix and no matmul. x is a channel-major batch [C,N,T,H,W]
// (rank 4 [C,T,H,W] for n=1), w is [OC, C*KT*KH*KW] in im2col row
// order p = (ci,kt,kh,kw), b is [OC], and out must be
// [OC, N*OT*OH*OW]. wt [C*KT*KH*KW, OC] and acc [N*OT*OH*OW, OC] are
// scratch: w is transposed into wt on every call, so weights written in
// place (state loads, adaptation) are never stale.
//
// The kernel scatters each nonzero input value v into the outputs it
// feeds: acc[j,:] += v·wt[p,:]. Input rows are walked in ascending
// (ci,n,t,y) order, and a row's values in ascending x, so the terms of
// any one output element arrive in ascending p — the order MatMulInto
// accumulates W·Im2Col3D in — and the only terms skipped are products
// with a zero input, which are ±0 and cannot change a sum that starts
// at +0. For finite weights and inputs the result is therefore
// bit-identical to the im2col path, while the work scales with the
// input's nonzeros. It runs on the caller's goroutine: the serving
// workers supply the parallelism.
func Conv3DInto(out, acc, wt, x, w, b *Tensor, n, kt, kh, kw, st, sh, sw, pt, ph, pw int) error {
	var c, tn, h, wd int
	switch {
	case x.Rank() == 5 && x.Shape[1] == n:
		c, tn, h, wd = x.Shape[0], x.Shape[2], x.Shape[3], x.Shape[4]
	case x.Rank() == 4 && n == 1:
		c, tn, h, wd = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	default:
		return fmt.Errorf("tensor: conv3d batch needs [C,%d,T,H,W] input, got %v", n, x.Shape)
	}
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(wd, kw, sw, pw)
	if ot <= 0 || oh <= 0 || ow <= 0 {
		return fmt.Errorf("tensor: conv3d produces empty output for input %v kernel %dx%dx%d", x.Shape, kt, kh, kw)
	}
	k, cols := c*kt*kh*kw, n*ot*oh*ow
	if w.Rank() != 2 || w.Shape[1] != k {
		return fmt.Errorf("tensor: conv3d weights %v, want [OC,%d]", w.Shape, k)
	}
	oc := w.Shape[0]
	switch {
	case b.Len() != oc:
		return fmt.Errorf("tensor: conv3d bias len %d, want %d", b.Len(), oc)
	case out.Rank() != 2 || out.Shape[0] != oc || out.Shape[1] != cols:
		return fmt.Errorf("tensor: conv3d out shape %v, want [%d,%d]", out.Shape, oc, cols)
	case acc.Rank() != 2 || acc.Shape[0] != cols || acc.Shape[1] != oc:
		return fmt.Errorf("tensor: conv3d acc shape %v, want [%d,%d]", acc.Shape, cols, oc)
	case wt.Rank() != 2 || wt.Shape[0] != k || wt.Shape[1] != oc:
		return fmt.Errorf("tensor: conv3d wt shape %v, want [%d,%d]", wt.Shape, k, oc)
	}
	for o := 0; o < oc; o++ {
		for p, v := range w.Data[o*k : (o+1)*k] {
			wt.Data[p*oc+o] = v
		}
	}
	acc.Zero()
	conv3dScatter(acc.Data, wt.Data, x.Data, c, n, tn, h, wd, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, oc)
	for o, bv := range b.Data {
		row := out.Data[o*cols : (o+1)*cols]
		for j := range row {
			row[j] = acc.Data[j*oc+o] + bv
		}
	}
	return nil
}

// conv3dScatter is the body of Conv3DInto: input rows (ci,n,t,y), then
// the taps (kt,kh) that map the row onto an output row, then the row's
// values, then the taps kw that map the value onto an output column.
// For one output element the terms from one row arrive in ascending
// input column, which is ascending kw. Only tapRange divides, once per
// input frame and once per row; the output column is tracked as the
// quotient and remainder of ix+pw by sw, stepped per input column.
func conv3dScatter(acc, wt, x []float64, c, n, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, oc int) {
	q0, r0 := pw/sw, pw%sw
	for cn := 0; cn < c*n; cn++ {
		ci, ni := cn/n, cn%n
		for t := 0; t < tn; t++ {
			otLo, otHi := tapRange(t+pt, kt, st, ot)
			for y := 0; y < h; y++ {
				row := x[((cn*tn+t)*h+y)*w : ((cn*tn+t)*h+y+1)*w]
				if otLo > otHi || allZero(row) {
					continue
				}
				oyLo, oyHi := tapRange(y+ph, kh, sh, oh)
				for oti := otHi; oti >= otLo; oti-- {
					kti := t + pt - oti*st
					for oyi := oyHi; oyi >= oyLo; oyi-- {
						ki := y + ph - oyi*sh
						accRow := acc[((ni*ot+oti)*oh+oyi)*ow*oc : ((ni*ot+oti)*oh+oyi+1)*ow*oc]
						p0 := ((ci*kt+kti)*kh + ki) * kw
						q, r := q0, r0
						for _, v := range row {
							if v != 0 {
								for kj, ox := r, q; kj < kw && ox >= 0; kj, ox = kj+sw, ox-1 {
									if ox >= ow {
										continue
									}
									wrow := wt[(p0+kj)*oc : (p0+kj+1)*oc]
									a := accRow[ox*oc : (ox+1)*oc]
									a = a[:len(wrow)]
									for o, wv := range wrow {
										a[o] += v * wv
									}
								}
							}
							if r++; r == sw {
								q, r = q+1, 0
							}
						}
					}
				}
			}
		}
	}
}

// tapRange returns the outputs [lo, hi] of one axis that input
// position pos (padding included) feeds: 0 ≤ pos − o·s < k, 0 ≤ o < out.
func tapRange(pos, k, s, out int) (lo, hi int) {
	if s == 1 {
		lo, hi = pos-k+1, pos
	} else {
		lo, hi = 0, pos/s
		if pos >= k {
			lo = (pos - k + s) / s
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= out {
		hi = out - 1
	}
	return lo, hi
}

func allZero(s []float64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// Col2Im3D scatters a column matrix produced by Im2Col3D back into a
// [C,T,H,W] tensor, accumulating overlaps; the adjoint of Im2Col3D.
func Col2Im3D(cols *Tensor, c, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw int) (*Tensor, error) {
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	if cols.Rank() != 2 || cols.Shape[0] != c*kt*kh*kw || cols.Shape[1] != ot*oh*ow {
		return nil, fmt.Errorf("tensor: col2im3d shape %v incompatible with [%d,%d,%d,%d]", cols.Shape, c, tn, h, w)
	}
	x := New(c, tn, h, w)
	spat := h * w
	for ci := 0; ci < c; ci++ {
		vol := x.Data[ci*tn*spat : (ci+1)*tn*spat]
		for kti := 0; kti < kt; kti++ {
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					rowIdx := ((ci*kt+kti)*kh+ki)*kw + kj
					row := cols.Data[rowIdx*ot*oh*ow:]
					for otz := 0; otz < ot; otz++ {
						it := otz*st - pt + kti
						if it < 0 || it >= tn {
							continue
						}
						plane := vol[it*spat:]
						for oy := 0; oy < oh; oy++ {
							iy := oy*sh - ph + ki
							if iy < 0 || iy >= h {
								continue
							}
							dst := plane[iy*w:]
							src := row[(otz*oh+oy)*ow:]
							for ox := 0; ox < ow; ox++ {
								ix := ox*sw - pw + kj
								if ix >= 0 && ix < w {
									dst[ix] += src[ox]
								}
							}
						}
					}
				}
			}
		}
	}
	return x, nil
}

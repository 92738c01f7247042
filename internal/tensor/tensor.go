// Package tensor implements dense, row-major float64 tensors and the
// numeric kernels (matmul, convolution, pooling, reductions) that the
// neural-network stack in internal/nn is built on.
//
// Tensors are deliberately simple: a flat []float64 buffer plus a
// shape. All operations are deterministic; randomness is injected via
// *rand.Rand so experiments are reproducible.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Tensor is a dense, row-major, float64 n-dimensional array.
//
// The zero value is not usable; construct tensors with New, Zeros,
// Full, FromSlice, or the random constructors in random.go.
type Tensor struct {
	// Data is the flat row-major backing buffer. Its length always
	// equals the product of Shape.
	Data []float64
	// Shape holds the size of each dimension. A scalar has Shape
	// []int{1}.
	Shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{
		Data:  make([]float64, Numel(shape)),
		Shape: append([]int(nil), shape...),
	}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied); callers that need isolation should pass
// a fresh slice. It returns an error if the element count does not
// match the shape.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	if len(data) != Numel(shape) {
		return nil, fmt.Errorf("tensor: %d elements cannot fill shape %v", len(data), shape)
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}, nil
}

// MustFromSlice is FromSlice for statically known-good inputs; it
// panics on mismatch and is intended for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Numel returns the number of elements implied by shape.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Len returns the total number of elements in the tensor.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if d != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies o's data into t. Shapes must match in element count.
func (t *Tensor) CopyFrom(o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("tensor: copy size mismatch %v vs %v", t.Shape, o.Shape)
	}
	copy(t.Data, o.Data)
	return nil
}

// Reshape returns a view-like tensor sharing t's data with a new
// shape. It returns an error if the element counts differ.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	if Numel(shape) != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v to %v", t.Shape, shape)
	}
	return &Tensor{Data: t.Data, Shape: append([]int(nil), shape...)}, nil
}

// MustReshape is Reshape that panics on mismatch; for statically
// known-correct reshapes.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// offset computes the flat index of a multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	off := 0
	for i, x := range idx {
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(fmt.Sprint(t.Shape))
	if len(t.Data) <= 16 {
		b.WriteByte('[')
		for i, v := range t.Data {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', 4, 64))
		}
		b.WriteByte(']')
	} else {
		fmt.Fprintf(&b, "{n=%d mean=%.4g}", len(t.Data), t.Mean())
	}
	return b.String()
}

// Randn fills t with N(0, std) samples drawn from rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// RandnTensor returns a fresh tensor of the given shape filled with
// N(0, std) samples.
func RandnTensor(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	t.Randn(rng, std)
	return t
}

// KaimingStd returns the He-initialisation standard deviation for a
// layer with the given fan-in, the scheme used for all conv and linear
// weights in internal/nn.
func KaimingStd(fanIn int) float64 {
	if fanIn <= 0 {
		return 1
	}
	return math.Sqrt(2 / float64(fanIn))
}

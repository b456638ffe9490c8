// Package dnn defines the neural-network intermediate representation used
// throughout the PREMA reproduction: layers, models, their lowering to GEMM
// shapes, and the benchmark model zoo from Section III of the paper
// (CNN-AN/GN/VN/MN and RNN-SA/MT1/MT2/ASR, plus ResNet-50 for Figure 1).
//
// The representation is deliberately a timing IR, not a numerical one: a
// layer carries exactly the shape information needed to derive its GEMM
// lowering, MAC count, weight/activation footprints, and therefore its
// deterministic execution time on the systolic-array NPU (Section V-B).
//
// An RNN instance is not stored unrolled. Its model describes it as
// phases: a step body built once with the model and shared by every
// instance, and the number of timesteps it repeats for (Model.PhasesFor).
// The compiler lowers each body once into a loop of the program, and the
// predictors estimate each body once and multiply by its count;
// LayersFor expands the phases for analyses that need every node.
package dnn

import (
	"fmt"

	"repro/internal/stats"
)

// Kind enumerates the layer types the paper's Section II-A discusses.
type Kind int

const (
	// Conv is a standard convolution, lowered to GEMM via im2col
	// (CONV_OP in the NPU ISA).
	Conv Kind = iota
	// DWConv is a depthwise convolution. It maps poorly onto a
	// weight-stationary systolic array (each output channel consumes a
	// disjoint input slice), so the compiler routes it to the vector
	// unit; this reproduces the low-effective-throughput outliers of
	// Figure 10.
	DWConv
	// FC is a fully-connected layer (GEMM_OP).
	FC
	// Pool is a pooling layer; an in-place VECTOR_OP (Section IV-B).
	Pool
	// Act is a standalone activation layer; an in-place VECTOR_OP.
	// Most activations in the zoo are fused into the producing layer.
	Act
	// LSTM is one recurrent cell-step of an LSTM layer: the combined
	// 4-gate GEMM over [input; hidden] plus elementwise gate math.
	LSTM
)

var kindNames = map[Kind]string{
	Conv:   "CONV",
	DWConv: "DWCONV",
	FC:     "FC",
	Pool:   "POOL",
	Act:    "ACTV",
	LSTM:   "RECR",
}

// String returns the paper's name for the layer kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// GEMMShape is the (m x k) x (k x n) matrix-multiplication a layer lowers
// to: an (m x k) weight matrix against a (k x n) input-activation matrix
// (Figure 3(c)).
type GEMMShape struct {
	M, K, N int
}

// MACs returns the multiply-accumulate count of the GEMM.
func (g GEMMShape) MACs() int64 {
	return int64(g.M) * int64(g.K) * int64(g.N)
}

// Valid reports whether all dimensions are positive.
func (g GEMMShape) Valid() bool { return g.M > 0 && g.K > 0 && g.N > 0 }

func (g GEMMShape) String() string {
	return fmt.Sprintf("(%dx%d)x(%dx%d)", g.M, g.K, g.K, g.N)
}

// Layer describes a single DAG node. Only the fields relevant to a layer's
// Kind are meaningful; constructors below populate them consistently.
type Layer struct {
	Name string
	Kind Kind

	// Spatial layers (Conv, DWConv, Pool).
	InH, InW, InC           int
	KH, KW, Stride, Padding int
	OutC                    int

	// FC layers.
	InF, OutF int

	// LSTM layers.
	Hidden, InDim int

	// FusedAct marks that an activation function is fused into this
	// layer's epilogue via VECTOR_OP (Section IV-B), adding vector-unit
	// work but no standalone layer.
	FusedAct bool
}

// NewConv builds a convolution layer with a fused activation.
func NewConv(name string, inH, inW, inC, outC, k, stride, pad int) Layer {
	return Layer{
		Name: name, Kind: Conv,
		InH: inH, InW: inW, InC: inC, OutC: outC,
		KH: k, KW: k, Stride: stride, Padding: pad,
		FusedAct: true,
	}
}

// NewDWConv builds a depthwise convolution (OutC == InC) with fused
// activation.
func NewDWConv(name string, inH, inW, c, k, stride, pad int) Layer {
	return Layer{
		Name: name, Kind: DWConv,
		InH: inH, InW: inW, InC: c, OutC: c,
		KH: k, KW: k, Stride: stride, Padding: pad,
		FusedAct: true,
	}
}

// NewFC builds a fully-connected layer.
func NewFC(name string, inF, outF int, fusedAct bool) Layer {
	return Layer{Name: name, Kind: FC, InF: inF, OutF: outF, FusedAct: fusedAct}
}

// NewPool builds a pooling layer.
func NewPool(name string, inH, inW, c, k, stride, pad int) Layer {
	return Layer{
		Name: name, Kind: Pool,
		InH: inH, InW: inW, InC: c, OutC: c,
		KH: k, KW: k, Stride: stride, Padding: pad,
	}
}

// NewLSTM builds one unrolled LSTM cell-step with the given hidden size and
// input dimension.
func NewLSTM(name string, hidden, inDim int) Layer {
	return Layer{Name: name, Kind: LSTM, Hidden: hidden, InDim: inDim, FusedAct: true}
}

// OutH returns the output height of a spatial layer.
func (l Layer) OutH() int { return spatialOut(l.InH, l.KH, l.Stride, l.Padding) }

// OutW returns the output width of a spatial layer.
func (l Layer) OutW() int { return spatialOut(l.InW, l.KW, l.Stride, l.Padding) }

func spatialOut(in, k, stride, pad int) int {
	if stride <= 0 {
		return 0
	}
	out := (in+2*pad-k)/stride + 1
	if out < 0 {
		return 0
	}
	return out
}

// GEMM returns the matrix-multiplication shape the layer lowers to for the
// given batch size. Layers that execute on the vector unit (DWConv, Pool,
// Act) return ok == false.
func (l Layer) GEMM(batch int) (g GEMMShape, ok bool) {
	switch l.Kind {
	case Conv:
		return GEMMShape{
			M: l.OutC,
			K: l.InC * l.KH * l.KW,
			N: l.OutH() * l.OutW() * batch,
		}, true
	case FC:
		return GEMMShape{M: l.OutF, K: l.InF, N: batch}, true
	case LSTM:
		return GEMMShape{M: 4 * l.Hidden, K: l.InDim + l.Hidden, N: batch}, true
	default:
		return GEMMShape{}, false
	}
}

// MACs returns the multiply-accumulate count for the layer at the given
// batch size. Pool and Act layers count one op per element processed.
func (l Layer) MACs(batch int) int64 {
	if g, ok := l.GEMM(batch); ok {
		return g.MACs()
	}
	switch l.Kind {
	case DWConv:
		return int64(l.OutC) * int64(l.OutH()) * int64(l.OutW()) *
			int64(l.KH) * int64(l.KW) * int64(batch)
	case Pool:
		return int64(l.OutC) * int64(l.OutH()) * int64(l.OutW()) *
			int64(l.KH) * int64(l.KW) * int64(batch)
	case Act:
		return l.OutputElems(batch)
	default:
		return 0
	}
}

// OutputElems returns the number of output-activation elements the layer
// produces for the given batch size. This is the state that CHECKPOINT
// must preserve while the layer is in flight (Section IV-B).
func (l Layer) OutputElems(batch int) int64 {
	switch l.Kind {
	case Conv, DWConv, Pool:
		return int64(l.OutC) * int64(l.OutH()) * int64(l.OutW()) * int64(batch)
	case FC:
		return int64(l.OutF) * int64(batch)
	case LSTM:
		// Both the hidden and the cell state are live output state.
		return 2 * int64(l.Hidden) * int64(batch)
	case Act:
		// In-place operation (Section IV-B): output occupies the
		// input's storage, so the footprint is the input shape.
		return int64(l.InC) * int64(l.InH) * int64(l.InW) * int64(batch)
	default:
		return 0
	}
}

// InputElems returns the number of input-activation elements consumed.
func (l Layer) InputElems(batch int) int64 {
	switch l.Kind {
	case Conv, DWConv, Pool, Act:
		return int64(l.InC) * int64(l.InH) * int64(l.InW) * int64(batch)
	case FC:
		return int64(l.InF) * int64(batch)
	case LSTM:
		return int64(l.InDim+l.Hidden) * int64(batch)
	default:
		return 0
	}
}

// WeightElems returns the number of weight elements the layer owns. For
// inference these are immutable and never checkpointed (Section IV-B).
func (l Layer) WeightElems() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.OutC) * int64(l.InC) * int64(l.KH) * int64(l.KW)
	case DWConv:
		return int64(l.InC) * int64(l.KH) * int64(l.KW)
	case FC:
		return int64(l.InF) * int64(l.OutF)
	case LSTM:
		return 4 * int64(l.Hidden) * int64(l.InDim+l.Hidden)
	default:
		return 0
	}
}

// Validate checks that the layer's shape fields are internally consistent.
func (l Layer) Validate() error {
	switch l.Kind {
	case Conv, DWConv, Pool:
		if l.InH <= 0 || l.InW <= 0 || l.InC <= 0 || l.OutC <= 0 {
			return fmt.Errorf("dnn: layer %q: non-positive spatial dims", l.Name)
		}
		if l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 || l.Padding < 0 {
			return fmt.Errorf("dnn: layer %q: bad kernel/stride/pad", l.Name)
		}
		if l.OutH() <= 0 || l.OutW() <= 0 {
			return fmt.Errorf("dnn: layer %q: kernel larger than padded input", l.Name)
		}
		if l.Kind == DWConv && l.InC != l.OutC {
			return fmt.Errorf("dnn: layer %q: depthwise requires InC == OutC", l.Name)
		}
	case FC:
		if l.InF <= 0 || l.OutF <= 0 {
			return fmt.Errorf("dnn: layer %q: non-positive FC dims", l.Name)
		}
	case LSTM:
		if l.Hidden <= 0 || l.InDim <= 0 {
			return fmt.Errorf("dnn: layer %q: non-positive LSTM dims", l.Name)
		}
	case Act:
		if l.InH <= 0 || l.InW <= 0 || l.InC <= 0 {
			return fmt.Errorf("dnn: layer %q: non-positive activation dims", l.Name)
		}
	default:
		return fmt.Errorf("dnn: layer %q: unknown kind %d", l.Name, int(l.Kind))
	}
	return nil
}

// ElemBytes is the storage size of one activation or weight element. The
// baseline NPU computes in 16-bit (Table I / Section II-B).
const ElemBytes = 2

// Bytes converts an element count to bytes at the NPU's 16-bit precision.
func Bytes(elems int64) int64 { return elems * ElemBytes }

// ceilDiv is re-exported for internal users via stats; kept here to make
// the dependency explicit at compile time.
var _ = stats.CeilDiv

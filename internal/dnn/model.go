package dnn

import (
	"fmt"
	"slices"
)

// Class distinguishes the two model families of the benchmark suite.
type Class int

const (
	// CNN models have a static DAG: the number of nodes to execute is
	// known at compile time (Section V-B).
	CNN Class = iota
	// RNN models unroll their recurrent layers to an input-dependent
	// sequence length, which PREMA predicts with the profile-driven
	// regression model (Figures 8-9).
	RNN
)

// String names the class.
func (c Class) String() string {
	switch c {
	case CNN:
		return "CNN"
	case RNN:
		return "RNN"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Phase is a step body repeated Times times. An RNN instance is a few
// phases — an encoder timestep repeated once per input token, a decoder
// step once per output token — and each body is built once with the
// model and shared by every instance.
type Phase struct {
	// Body is one step's layers. It is shared and must not be
	// modified.
	Body []Layer
	// Times is the number of steps.
	Times int
}

// PhaseFunc describes an RNN model's instance for a concrete input and
// (sampled or predicted) output sequence length as phases.
type PhaseFunc func(inLen, outLen int) []Phase

// Model is one inference workload in the zoo: either a static CNN layer
// list, or an RNN described by its phases plus a sequence-length
// profile name resolved by package seqlen.
type Model struct {
	// Name is the paper's workload label, e.g. "CNN-VN" or "RNN-MT1".
	Name string
	// Class is CNN or RNN.
	Class Class

	// Static holds the layer list for CNN models.
	Static []Layer

	// Phases describes an RNN model's instances.
	Phases PhaseFunc
	// SeqProfile names the seq2seq length-characterization profile
	// (Figure 9) used to sample actual output lengths and to build the
	// regression lookup table. Empty for CNNs.
	SeqProfile string
	// MinInLen and MaxInLen bound the profiled input sequence lengths.
	MinInLen, MaxInLen int
}

// IsRNN reports whether the model unrolls dynamically.
func (m *Model) IsRNN() bool { return m.Class == RNN }

// PhasesFor returns the model instance as phases, omitting any phase
// that repeats zero times. A CNN is its static layer list run once.
func (m *Model) PhasesFor(inLen, outLen int) []Phase {
	if m.Class == CNN {
		return []Phase{{Body: m.Static, Times: 1}}
	}
	return slices.DeleteFunc(m.Phases(inLen, outLen), func(p Phase) bool { return p.Times <= 0 })
}

// LayersFor returns the concrete layer list for this model: the phases
// expanded step by step. CNNs ignore the sequence lengths and share
// their static list. The compiler and the predictors work on the phases
// and never expand them; LayersFor serves analyses that need every
// unrolled node.
func (m *Model) LayersFor(inLen, outLen int) []Layer {
	if m.Class == CNN {
		return m.Static
	}
	phases := m.PhasesFor(inLen, outLen)
	n := 0
	for _, p := range phases {
		n += p.Times * len(p.Body)
	}
	layers := make([]Layer, 0, n)
	for _, p := range phases {
		for t := 0; t < p.Times; t++ {
			layers = append(layers, p.Body...)
		}
	}
	return layers
}

// Validate checks the model definition: a CNN must have static layers and
// every layer must be self-consistent; an RNN must have a phase function
// and valid length bounds.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("dnn: model without a name")
	}
	switch m.Class {
	case CNN:
		if len(m.Static) == 0 {
			return fmt.Errorf("dnn: CNN model %q has no layers", m.Name)
		}
		for _, l := range m.Static {
			if err := l.Validate(); err != nil {
				return fmt.Errorf("model %q: %w", m.Name, err)
			}
		}
	case RNN:
		if m.Phases == nil {
			return fmt.Errorf("dnn: RNN model %q has no phase function", m.Name)
		}
		if m.MinInLen <= 0 || m.MaxInLen < m.MinInLen {
			return fmt.Errorf("dnn: RNN model %q has bad input-length bounds [%d,%d]",
				m.Name, m.MinInLen, m.MaxInLen)
		}
		if m.SeqProfile == "" {
			return fmt.Errorf("dnn: RNN model %q has no sequence profile", m.Name)
		}
		// Validate a representative instance's step bodies.
		for _, p := range m.PhasesFor(m.MinInLen, m.MinInLen) {
			for _, l := range p.Body {
				if err := l.Validate(); err != nil {
					return fmt.Errorf("model %q: %w", m.Name, err)
				}
			}
		}
	default:
		return fmt.Errorf("dnn: model %q has unknown class %d", m.Name, int(m.Class))
	}
	return nil
}

// TotalMACs sums layer MACs for a concrete instantiation.
func (m *Model) TotalMACs(batch, inLen, outLen int) int64 {
	var total int64
	for _, p := range m.PhasesFor(inLen, outLen) {
		var body int64
		for _, l := range p.Body {
			body += l.MACs(batch)
		}
		total += int64(p.Times) * body
	}
	return total
}

// TotalWeightBytes sums the (deduplicated, for RNNs) weight footprint of
// the model. RNN cell weights are shared across timesteps, so unrolled
// duplicates of the same named layer are counted once.
func (m *Model) TotalWeightBytes(inLen, outLen int) int64 {
	seen := make(map[string]bool)
	var total int64
	for _, p := range m.PhasesFor(inLen, outLen) {
		for _, l := range p.Body {
			if seen[l.Name] {
				continue
			}
			seen[l.Name] = true
			total += Bytes(l.WeightElems())
		}
	}
	return total
}

// MaxOutputBytes returns the largest single-layer output-activation
// footprint of the instantiated model — an upper bound on checkpointed
// live state for one in-flight layer.
func (m *Model) MaxOutputBytes(batch, inLen, outLen int) int64 {
	var max int64
	for _, p := range m.PhasesFor(inLen, outLen) {
		for _, l := range p.Body {
			if b := Bytes(l.OutputElems(batch)); b > max {
				max = b
			}
		}
	}
	return max
}

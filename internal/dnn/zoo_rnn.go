package dnn

import (
	"fmt"
)

// This file encodes the RNN benchmark topologies of Section III:
// RNN-SA (sentiment analysis, linear input/output length relationship),
// RNN-MT1/MT2 (seq2seq machine translation, non-linear relationship), and
// RNN-ASR (a "Listen, Attend and Spell"-style speech recognizer).
//
// Each model's phase function describes a concrete (input length, output
// length) instance as step bodies, built once per model, and their repeat
// counts — the unrolled node count Algorithm 1 multiplies a per-node
// cost by; the actual output length of a task instance is sampled from
// the seqlen profile named by SeqProfile, while PREMA's predictor uses
// the regression lookup table built from the same profile (Section V-B,
// Figure 9).

// lstmStack appends nLayers unrolled LSTM cell-steps for one timestep.
// The first layer consumes inDim, subsequent layers consume hidden.
// Layer names are timestep-invariant ("enc.l0", "enc.l1", ...) because the
// cell weights are shared across the unrolled steps; weight-footprint
// accounting and the profile-based predictor both key on the name.
func lstmStack(layers []Layer, prefix string, nLayers, hidden, inDim int) []Layer {
	for l := 0; l < nLayers; l++ {
		d := hidden
		if l == 0 {
			d = inDim
		}
		layers = append(layers, NewLSTM(fmt.Sprintf("%s.l%d", prefix, l), hidden, d))
	}
	return layers
}

// SentimentAnalysis returns RNN-SA: a 2-layer LSTM (hidden 512) over the
// input sequence followed by a small classifier. Its output sequence
// length equals its input length (Figure 8(b)), so prediction is trivial.
func SentimentAnalysis() *Model {
	const (
		hidden = 512
		embed  = 512
		stack  = 2
	)
	enc := lstmStack(nil, "enc", stack, hidden, embed)
	cls := []Layer{NewFC("cls", hidden, 2, false)}
	phases := func(inLen, outLen int) []Phase {
		// Linear RNN: recurrence length == input length; outLen is
		// ignored by construction (Figure 8(b)).
		return []Phase{{Body: enc, Times: inLen}, {Body: cls, Times: 1}}
	}
	return &Model{
		Name: "RNN-SA", Class: RNN,
		Phases:     phases,
		SeqProfile: "sa",
		MinInLen:   5, MaxInLen: 50,
	}
}

// machineTranslation builds a seq2seq encoder/decoder LSTM with a
// per-decoder-step attention context and vocabulary projection. profile
// selects the target-language length characterization; hidden/vocab size
// the model so its end-to-end latency stays in the paper's 0.5-45 ms band
// (Section IV-D) despite the widely different unrolled lengths of the
// target languages.
func machineTranslation(name, profile string, stack, hidden, vocab int) *Model {
	embed := hidden
	enc := lstmStack(nil, "enc", stack, hidden, embed)
	// Attention context combine and vocabulary projection per generated
	// token (seq2seq decoding, Figure 8(c)).
	dec := append(lstmStack(nil, "dec", stack, hidden, embed),
		NewFC("attn", 2*hidden, hidden, true),
		NewFC("proj", hidden, vocab, false),
	)
	phases := func(inLen, outLen int) []Phase {
		return []Phase{{Body: enc, Times: inLen}, {Body: dec, Times: outLen}}
	}
	return &Model{
		Name: name, Class: RNN,
		Phases:     phases,
		SeqProfile: profile,
		MinInLen:   5, MaxInLen: 50,
	}
}

// TranslationDE returns RNN-MT1, an English-to-German translation service
// with a word-level vocabulary (near-linear output/input length ratio,
// Figure 9(a)).
func TranslationDE() *Model {
	return machineTranslation("RNN-MT1", "mt-de", 2, 768, 16000)
}

// TranslationZH returns RNN-MT2, an English-to-Chinese translation service
// with a character-level decoder (strongly super-linear output lengths,
// Figure 9(c)); the smaller per-step cell compensates for the much longer
// unrolled decode.
func TranslationZH() *Model {
	return machineTranslation("RNN-MT2", "mt-zh", 2, 512, 4096)
}

// TranslationKO returns an English-to-Korean variant (Figure 9(b)); it is
// not part of the default 8-model suite but is available for sensitivity
// studies, mirroring the paper's random choice among DE/KO/ZH.
func TranslationKO() *Model {
	return machineTranslation("RNN-MT-KO", "mt-ko", 2, 768, 16000)
}

// SpeechRecognition returns RNN-ASR, a "Listen, Attend and Spell"-style
// model: a 3-layer pyramidal bidirectional LSTM encoder (hidden 512, time
// resolution halved per layer) and a 2-layer attention decoder emitting
// characters. Audio input lengths span 20-100 frames (Figure 9(d)).
func SpeechRecognition() *Model {
	const (
		hidden  = 512
		featDim = 80
		charVoc = 30
	)
	// Pyramidal encoder: layer l consumes the concatenation of two
	// lower-layer outputs, with a forward and a backward cell per step.
	var enc [3][]Layer
	inDim := featDim
	for l := range enc {
		enc[l] = []Layer{
			NewLSTM(fmt.Sprintf("enc.l%d.fw", l), hidden, inDim),
			NewLSTM(fmt.Sprintf("enc.l%d.bw", l), hidden, inDim),
		}
		inDim = 4 * hidden // concat of 2 timesteps x 2 directions
	}
	dec := append(lstmStack(nil, "dec", 2, hidden, hidden),
		NewFC("attn", 2*hidden, hidden, true),
		NewFC("proj", hidden, charVoc, false),
	)
	phases := func(inLen, outLen int) []Phase {
		ps := make([]Phase, 0, len(enc)+1)
		// Encoder layer l runs ceil(inLen / 2^l) steps.
		steps := inLen
		for l := range enc {
			ps = append(ps, Phase{Body: enc[l], Times: steps})
			steps = (steps + 1) / 2
		}
		return append(ps, Phase{Body: dec, Times: outLen})
	}
	return &Model{
		Name: "RNN-ASR", Class: RNN,
		Phases:     phases,
		SeqProfile: "asr",
		MinInLen:   20, MaxInLen: 100,
	}
}

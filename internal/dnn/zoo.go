package dnn

import (
	"fmt"
	"sort"
	"sync"
)

// zoo is every model, built once: the eight-model suite in the paper's
// presentation order, then the auxiliary models. The models are shared
// and immutable — nothing writes to a zoo model after construction.
var zoo = sync.OnceValue(func() (z struct {
	all    []*Model
	byName map[string]*Model
	names  []string
}) {
	z.all = []*Model{
		AlexNet(),
		GoogLeNet(),
		VGG16(),
		MobileNet(),
		SentimentAnalysis(),
		TranslationDE(),
		TranslationZH(),
		SpeechRecognition(),
		ResNet50(),
		TranslationKO(),
	}
	z.byName = make(map[string]*Model, len(z.all))
	for _, m := range z.all {
		z.byName[m.Name] = m
		z.names = append(z.names, m.Name)
	}
	sort.Strings(z.names)
	return z
})

// suiteLen is the number of zoo models in the default suite.
const suiteLen = 8

// Suite returns the eight-model benchmark suite of Section III in the
// paper's presentation order: CNN-AN/GN/VN/MN then RNN-SA/MT1/MT2/ASR.
// The models are shared and must not be modified; the slice is the
// caller's.
func Suite() []*Model {
	return append([]*Model(nil), zoo().all[:suiteLen]...)
}

// All returns every model in the zoo, including the auxiliary models that
// are not part of the default suite (CNN-RN for Figure 1, RNN-MT-KO for
// sensitivity studies). The models are shared and must not be modified;
// the slice is the caller's.
func All() []*Model {
	return append([]*Model(nil), zoo().all...)
}

// ByName looks a model up by its workload label, returning the shared
// zoo model.
func ByName(name string) (*Model, error) {
	if m, ok := zoo().byName[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("dnn: unknown model %q (known: %v)", name, Names())
}

// Names returns the sorted labels of every model in the zoo.
func Names() []string {
	return append([]string(nil), zoo().names...)
}

// BatchSizes are the batch sizes the paper evaluates (Figures 5-6).
var BatchSizes = []int{1, 4, 16}

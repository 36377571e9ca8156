package main

import (
	"fmt"
	"os"
	"path/filepath"

	"webbrief/internal/corpus"
	"webbrief/internal/embed"
	"webbrief/internal/textproc"
	"webbrief/internal/wb"
)

// Model fixture: the trained Joint-WB every backend serves. It is trained
// through the same path cmd/wbtrain takes with its default flags (GloVe
// d=24 pre-training, h=24, 8 seen domains × 12 pages, 30 epochs) from
// fixtureSeed, outside every timed phase, and cached as a snapshot under
// the build directory so later runs skip the ~20 s training. Set-up then
// decodes those snapshot bytes, exactly as a backend booting from a bundle
// would.
//
// The fixture seed is fixed rather than taken from --seed, so seeds vary
// the traffic and not the model. Seed 2's float32 student escalates about
// 5% of long pages at the cascade threshold (10 of 184 in a sample); seed
// 1's escalates 3 of them and seed 5's none, which would leave long-cascade
// runs that never exercise escalation.
const (
	fixtureSeed    = 2
	fixtureDomains = 8
	fixturePages   = 12
	fixtureEpochs  = 30
	fixtureDim     = 24
	fixtureHidden  = 24
)

// fixture holds the encoded snapshot plus the decoded model and vocabulary
// the oracle and the serial replay use.
type fixture struct {
	snap  []byte
	model *wb.JointWB
	vocab *textproc.Vocab
}

// loadFixture returns the model trained from seed, training and caching
// it in dir on first use. An empty dir disables the cache.
func loadFixture(dir string, seed int64) (*fixture, error) {
	path := ""
	if dir != "" {
		path = filepath.Join(dir, fmt.Sprintf("model-seed%d.snap", seed))
		if data, err := os.ReadFile(path); err == nil {
			if fx, err := decodeFixture(data); err == nil {
				return fx, nil
			}
			// A torn or stale cache file is retrained below.
		}
	}
	m, v, err := trainFixture(seed)
	if err != nil {
		return nil, err
	}
	data, err := wb.EncodeSnapshot(m, v)
	if err != nil {
		return nil, fmt.Errorf("encode fixture snapshot: %w", err)
	}
	if path != "" {
		if err := writeFileAtomic(path, data); err != nil {
			return nil, err
		}
	}
	return decodeFixture(data)
}

func decodeFixture(data []byte) (*fixture, error) {
	m, v, err := wb.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("decode fixture snapshot: %w", err)
	}
	return &fixture{snap: data, model: m, vocab: v}, nil
}

// trainFixture mirrors cmd/wbtrain's default training path.
func trainFixture(seed int64) (*wb.JointWB, *textproc.Vocab, error) {
	ds, err := corpus.Generate(corpus.Config{Seed: seed, PagesPerDomain: fixturePages, SeenDomains: fixtureDomains})
	if err != nil {
		return nil, nil, fmt.Errorf("fixture corpus: %w", err)
	}
	v := corpus.BuildVocab(ds.Pages)
	docs := make([][]int, 0, len(ds.Pages))
	for _, p := range ds.Pages {
		var doc []int
		for _, s := range p.Sentences {
			doc = append(doc, v.IDs(s.Tokens)...)
		}
		docs = append(docs, doc)
	}
	gcfg := embed.DefaultGloVeConfig(fixtureDim)
	gcfg.Seed = seed
	vectors := embed.TrainGloVe(docs, v.Size(), gcfg)

	train, _, _ := corpus.Split(ds.Pages, seed)
	cfg := wb.DefaultConfig()
	cfg.Hidden = fixtureHidden
	cfg.Seed = seed
	m := wb.NewJointWB("Joint-WB", wb.NewGloVeEncoder(vectors), v.Size(), cfg)
	tc := wb.DefaultTrainConfig()
	tc.Epochs = fixtureEpochs
	tc.Seed = seed
	wb.TrainModel(m, wb.NewInstances(train, v, 0), tc)
	return m, v, nil
}

// writeFileAtomic writes data to path via a temporary file and rename, so
// a run cut short never leaves a torn snapshot for the next run to read.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"webbrief/internal/corpus"
	"webbrief/internal/tensor"
	"webbrief/internal/wb"
)

// TestLoadModelBothFormats writes one tiny model as a gob bundle (wbtrain's
// default) and as a snapshot (wbtrain -format snapshot, wbsnap), and checks
// that loadModel reads both back into models that brief identically.
func TestLoadModelBothFormats(t *testing.T) {
	ds, err := corpus.Generate(corpus.Config{Seed: 1, PagesPerDomain: 2, SeenDomains: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := corpus.BuildVocab(ds.Pages)
	cfg := wb.DefaultConfig()
	cfg.Hidden = 8
	enc := wb.NewGloVeEncoder(tensor.Randn(v.Size(), 8, 0.1, rand.New(rand.NewSource(1))))
	m := wb.NewJointWB("wbrief-test", enc, v.Size(), cfg)

	dir := t.TempDir()
	var gob bytes.Buffer
	if err := wb.SaveJointWB(&gob, m, v); err != nil {
		t.Fatal(err)
	}
	snap, err := wb.EncodeSnapshot(m, v)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string][]byte{"model.bin": gob.Bytes(), "model.snap": snap}

	inst := wb.InstanceFromHTML(ds.Pages[0].HTML, v, 0)
	want := wb.MakeBrief(m, inst, v, 2)
	for name, data := range paths {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lm, lv, err := loadModel(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lv.Size() != v.Size() {
			t.Fatalf("%s: vocab size %d, want %d", name, lv.Size(), v.Size())
		}
		if got := wb.MakeBrief(lm, wb.InstanceFromHTML(ds.Pages[0].HTML, lv, 0), lv, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: loaded model briefs %+v, want %+v", name, got, want)
		}
	}

	if _, _, err := loadModel(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("loadModel on a missing file returned no error")
	}
}

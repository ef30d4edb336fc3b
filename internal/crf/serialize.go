package crf

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// modelWire is the serialised form of a Model. Only exported fields cross
// the gob boundary, so the in-memory Model keeps its unexported layout.
type modelWire struct {
	Version int
	Config  Config
	Labels  []string
	// Features lists feature strings in id order.
	Features []string
	Emit     []float64
	Trans    []float64
}

const wireVersion = 1

// gob allocates wire type ids from a process-global counter in first-use
// order, and those ids appear in the encoded stream. Encoding a zero value
// here pins modelWire's ids at package init, so saved model bytes (and the
// content fingerprints built on them) never depend on which other code used
// gob first in the process — e.g. checkpoint or spill-shard encoding.
func init() { _ = gob.NewEncoder(io.Discard).Encode(modelWire{}) }

// Save writes the trained model to w. The format is gob-encoded and
// versioned; Load rejects unknown versions.
func (m *Model) Save(w io.Writer) error {
	feats := make([]string, len(m.featIdx))
	for f, id := range m.featIdx {
		feats[id] = f
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(modelWire{
		Version:  wireVersion,
		Config:   m.cfg,
		Labels:   m.labels,
		Features: feats,
		Emit:     m.emit,
		Trans:    m.trans,
	}); err != nil {
		return fmt.Errorf("crf: encode: %w", err)
	}
	return bw.Flush()
}

// Load reads a model previously written by Save. It returns an error for a
// stream that is not a consistent model: weight counts that do not match the
// alphabets, a feature window outside 1..MaxWindow, duplicate labels or
// features, or non-finite weights.
func Load(r io.Reader) (*Model, error) {
	var w modelWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&w); err != nil {
		return nil, fmt.Errorf("crf: decode: %w", err)
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("crf: unsupported model version %d", w.Version)
	}
	L := len(w.Labels)
	if L == 0 {
		return nil, fmt.Errorf("crf: model has no labels")
	}
	if len(w.Emit) != len(w.Features)*L || len(w.Trans) != (L+1)*L {
		return nil, fmt.Errorf("crf: corrupt model: %d features, %d labels, %d emission and %d transition weights",
			len(w.Features), L, len(w.Emit), len(w.Trans))
	}
	if win := w.Config.Feature.Window; win < 1 || win > MaxWindow {
		return nil, fmt.Errorf("crf: corrupt model: feature window %d outside 1..%d", win, MaxWindow)
	}
	if err := checkFinite("emission", w.Emit); err != nil {
		return nil, err
	}
	if err := checkFinite("transition", w.Trans); err != nil {
		return nil, err
	}
	labelIdx, err := indexStrings("label", w.Labels)
	if err != nil {
		return nil, err
	}
	featIdx, err := indexStrings("feature", w.Features)
	if err != nil {
		return nil, err
	}
	return &Model{
		cfg:      w.Config,
		labels:   w.Labels,
		labelIdx: labelIdx,
		featIdx:  featIdx,
		emit:     w.Emit,
		trans:    w.Trans,
	}, nil
}

// indexStrings maps each string to its position, rejecting duplicates: a
// repeated label or feature would point its index at only one of the rows
// the weights assign to it.
func indexStrings(kind string, ss []string) (map[string]int, error) {
	idx := make(map[string]int, len(ss))
	for i, s := range ss {
		if j, dup := idx[s]; dup {
			return nil, fmt.Errorf("crf: corrupt model: %s %q at both %d and %d", kind, s, j, i)
		}
		idx[s] = i
	}
	return idx, nil
}

func checkFinite(kind string, ws []float64) error {
	for i, w := range ws {
		if !isFinite(w) {
			return fmt.Errorf("crf: corrupt model: %s weight %d is %v", kind, i, w)
		}
	}
	return nil
}

// SaveFile writes the model to path, creating or truncating it.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

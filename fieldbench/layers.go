package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bundle"
	"repro/internal/cleaning"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/extract"
	"repro/internal/lstm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/tagger"
	"repro/internal/text"
	"repro/internal/triples"
	"repro/internal/word2vec"
	"repro/internal/workload"
)

// allocMB returns the bytes allocated while fn runs, in MB.
func allocMB(fn func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), err
}

// bootstrapLayers derives the core.* stage self times from the span tree
// the pipeline emitted through Config.Obs, and measures the bundle layer.
func (b *bench) bootstrapLayers(bundleBytes []byte, bundlePath string) error {
	self := selfTimes(b.pipelineTree)
	for _, stage := range []string{"prep", "seed", "train", "tag", "veto", "semantic", "relabel", "checkpoint"} {
		b.layer["core."+stage+"_s"] = self[stage]
	}
	b.layer["core.checkpoint_bytes"] = float64(b.pipelineTree.Counters["checkpoint.bytes"])
	b.layer["bundle.bytes"] = float64(len(bundleBytes))
	var loads []float64
	for i := 0; i < 3; i++ {
		secs, err := timed(b.root, "bundle.load", func() error {
			_, err := bundle.LoadFile(bundlePath)
			return err
		})
		if err != nil {
			return err
		}
		loads = append(loads, secs)
	}
	b.layer["bundle.load_s"] = median(loads)
	return nil
}

// replayReport compares the replay of iteration 1 through the layers'
// public functions with the pipeline's own iteration-1 counts.
type replayReport struct {
	TrainingSequences         int    `json:"training_sequences"`
	PipelineTrainingSequences int    `json:"pipeline_training_sequences"`
	Tagged                    int    `json:"tagged"`
	PipelineTagged            int    `json:"pipeline_tagged"`
	VetoKept                  int    `json:"veto_kept"`
	PipelineVetoKept          int    `json:"pipeline_veto_kept"`
	SemanticRemoved           int    `json:"semantic_removed"`
	PipelineSemanticRemoved   int    `json:"pipeline_semantic_removed"`
	Differs                   string `json:"differs,omitempty"` // first step whose count differs
}

// replayIteration re-runs the pipeline's first iteration one layer at a time
// on the same corpus, timing each layer: corpus read, seed discovery and
// selection, sentence split, labeling, model fit, tagging, veto, semantic
// cleaning and its word2vec training. It mirrors core's defaults for the
// zero Config; a count that does not match the pipeline's is reported with
// the step that produced it.
func (b *bench) replayIteration(corpusDir string, res *core.Result) error {
	span := b.root.Child("replay")
	defer span.End(nil)
	ctx := b.ctx
	workers := par.Workers(0)
	r, err := corpus.Open(corpusDir)
	if err != nil {
		return err
	}
	src := r.Source()
	defer src.Close()
	rec := obs.New(obs.Options{NoRuntimeStats: true})
	if ins, ok := src.(corpus.Instrumented); ok {
		ins.Instrument(rec, nil)
	}
	var docs []seed.Document
	b.layer["corpus.read_s"], err = timed(span, "corpus.read", func() error {
		_, err := corpus.ForEachChunk(src, 64, func(chunk []seed.Document, _ int) error {
			docs = append(docs, chunk...)
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	b.layer["corpus.bytes_read"] = float64(rec.Counter("corpus.bytes_read"))

	tok := text.ForLanguage(r.Manifest.Lang)
	scfg := seed.Config{Tokenizer: tok}.WithDefaults()
	veto := cleaning.VetoConfig{}.WithDefaults()
	var complete, clean []seed.Candidate
	b.layer["seed.discover_s"], _ = timed(span, "seed.discover", func() error {
		raw := seed.DiscoverCandidates(docs)
		agg, _ := seed.AggregateAttributes(raw, scfg)
		clean = seed.CleanValues(agg, r.Manifest.Queries, scfg)
		complete = seed.Diversify(clean, agg, scfg)
		return nil
	})
	var seedTriples []triples.Triple
	for _, c := range clean {
		if c.DocID != "" {
			seedTriples = append(seedTriples, triples.Triple{ProductID: c.DocID, Attribute: c.Attr, Value: c.Value})
		}
	}
	seedVeto := veto
	seedVeto.PopularFraction = 1
	seedTriples, _ = cleaning.ApplyVetoFor(workload.DetailPage, triples.Dedup(seedTriples), seedVeto)
	b.layer["seed.pairs"] = float64(len(seed.Pairs(complete)))
	b.layer["seed.triples"] = float64(len(seedTriples))

	perDoc := make([][]seed.SentenceOf, len(docs))
	b.layer["seed.split_s"], err = timed(span, "seed.split", func() error {
		return par.ForEach(ctx, workers, len(docs), func(i int) error {
			perDoc[i] = seed.SplitDocument(docs[i], scfg)
			return nil
		})
	})
	if err != nil {
		return err
	}
	seedDocs := map[string]bool{}
	for _, c := range complete {
		if c.DocID != "" {
			seedDocs[c.DocID] = true
		}
	}
	var all, seedSents []seed.SentenceOf
	for i, ss := range perDoc {
		all = append(all, ss...)
		if seedDocs[docs[i].ID] {
			seedSents = append(seedSents, ss...)
		}
	}
	b.layer["lstm.repeat_token_share"] = repeatTokenShare(all)

	var dataset []tagger.Sequence
	b.layer["seed.label_s"], err = timed(span, "seed.label", func() error {
		var err error
		dataset, err = seed.LabelSentencesCtx(ctx, seedSents, complete, nil, scfg, workers)
		return err
	})
	if err != nil {
		return err
	}

	var model tagger.Model
	fitRec := obs.New(obs.Options{NoRuntimeStats: true})
	fit := func() error {
		var err error
		if b.sp.model == core.RNN {
			// core seeds iteration i's BiLSTM with 1·2654435761 + i.
			model, err = lstm.Trainer{Config: lstm.Config{Workers: workers, Seed: 2654435761 + 1}, Ctx: ctx}.Fit(dataset)
		} else {
			model, err = crf.Trainer{Config: crf.Config{Workers: workers}, Ctx: ctx, Obs: fitRec}.Fit(dataset)
		}
		return err
	}
	layer := "crf"
	if b.sp.model == core.RNN {
		layer = "lstm"
	}
	var fitSecs float64
	b.layer[layer+".fit_alloc_mb"], err = allocMB(func() error {
		var err error
		fitSecs, err = timed(span, layer+".fit", fit)
		return err
	})
	if err != nil {
		return err
	}
	b.layer[layer+".fit_s"] = fitSecs
	b.layer["crf.optimizer_iterations"] = float64(fitRec.Counter("crf.optimizer_iterations"))
	b.layer["crf.linesearch_evals"] = float64(fitRec.Counter("crf.linesearch_evals"))

	var tagged []triples.Triple
	b.layer["extract.tag_s"], err = timed(span, "extract.tag", func() error {
		var err error
		tagged, err = extract.Engine{Model: model, Workers: workers}.TagSentences(ctx, all)
		return err
	})
	if err != nil {
		return err
	}
	b.layer["extract.sentences"] = float64(len(all))
	b.layer["extract.spans"] = float64(len(tagged))

	var kept []triples.Triple
	b.layer["cleaning.veto_s"], _ = timed(span, "cleaning.veto", func() error {
		kept, _ = cleaning.ApplyVetoFor(workload.DetailPage, tagged, veto)
		return nil
	})
	b.layer["cleaning.veto_kept_ratio"] = ratio(float64(len(kept)), float64(len(tagged)))

	sem := cleaning.SemanticConfig{TokenizeValue: func(s string) []string {
		return text.Texts(tok.Tokenize(s))
	}}.WithDefaults()
	stream := func(yield func([]string) error) error {
		for _, s := range all {
			if err := yield(text.Texts(s.Tokens)); err != nil {
				return err
			}
		}
		return nil
	}
	var after []triples.Triple
	var removed int
	semSecs, err := timed(span, "cleaning.semantic", func() error {
		var err error
		after, removed, err = cleaning.SemanticCleanStream(kept, stream, sem)
		return err
	})
	if err != nil {
		return err
	}
	// SemanticCleanStream retrains its embedding inside the call, so
	// cleaning.semantic_s includes it; word2vec.train_s times the same
	// embedding training on its own, over the same sentences.
	b.layer["cleaning.semantic_s"] = semSecs
	b.layer["word2vec.train_s"], err = timed(span, "word2vec.train", func() error {
		_, err := word2vec.TrainStream(stream, sem.Embedding)
		return err
	})
	if err != nil {
		return err
	}
	b.layer["cleaning.semantic_kept_ratio"] = ratio(float64(len(after)), float64(len(kept)))

	it := res.Iterations[0]
	rep := &replayReport{
		TrainingSequences: len(dataset), PipelineTrainingSequences: it.TrainingSequences,
		Tagged: len(tagged), PipelineTagged: it.TaggedCandidates,
		VetoKept: len(kept), PipelineVetoKept: it.TaggedCandidates - it.Veto.Removed(),
		SemanticRemoved: removed, PipelineSemanticRemoved: it.SemanticRemoved,
	}
	switch {
	case rep.TrainingSequences != rep.PipelineTrainingSequences:
		rep.Differs = "seed.label (training sequences)"
	case rep.Tagged != rep.PipelineTagged:
		rep.Differs = "extract.tag (tagged triples)"
	case rep.VetoKept != rep.PipelineVetoKept:
		rep.Differs = "cleaning.veto (kept triples)"
	case rep.SemanticRemoved != rep.PipelineSemanticRemoved:
		rep.Differs = "cleaning.semantic (removed triples)"
	}
	if rep.Differs != "" {
		b.log.Warn("replay differs from the pipeline's iteration 1", "step", rep.Differs,
			"replay_training", rep.TrainingSequences, "pipeline_training", rep.PipelineTrainingSequences,
			"replay_tagged", rep.Tagged, "pipeline_tagged", rep.PipelineTagged)
	}
	b.replay = rep
	b.info["replay"] = rep
	return nil
}

// repeatTokenShare is the share of token occurrences whose word already
// occurred earlier in the corpus.
func repeatTokenShare(sents []seed.SentenceOf) float64 {
	seen := map[string]bool{}
	total, repeats := 0, 0
	for _, s := range sents {
		for _, t := range s.Tokens {
			total++
			if seen[t.Text] {
				repeats++
			}
			seen[t.Text] = true
		}
	}
	return ratio(float64(repeats), float64(total))
}

// serveLayers times the serving layers in-process on held-out pages: model
// decode per sentence, Extractor page and 16-page batch extraction, and the
// JSON codec on the request and response types.
func (b *bench) serveLayers(x *extract.Extractor, bundlePath string, bodies [][]byte, replies []serve.Response) error {
	span := b.root.Child("layers")
	defer span.End(nil)
	ctx := b.ctx
	docs, err := decodeDocs(bodies)
	if err != nil {
		return err
	}
	bnd, err := bundle.LoadFile(bundlePath)
	if err != nil {
		return err
	}
	scfg := seed.Config{Tokenizer: text.ForLanguage(bnd.Manifest.Lang)}.WithDefaults()
	var seqs []tagger.Sequence
	for _, d := range docs {
		for _, s := range seed.SplitDocument(d, scfg) {
			pos := make([]string, len(s.PoS))
			for i, p := range s.PoS {
				pos[i] = string(p)
			}
			seqs = append(seqs, tagger.Sequence{Tokens: text.Texts(s.Tokens), PoS: pos, SentenceIndex: s.Index, PageID: s.DocID})
		}
	}
	perCall := func(name string, n int, fn func(i int) error) (float64, error) {
		ds := make([]time.Duration, 0, n)
		_, err := timed(span, name, func() error {
			for i := 0; i < n; i++ {
				began := time.Now()
				if err := fn(i); err != nil {
					return err
				}
				ds = append(ds, time.Since(began))
			}
			return nil
		})
		return median(micros(ds)), err
	}
	switch m := bnd.Model.(type) {
	case *crf.Model:
		d := m.NewDecoder()
		b.layer["crf.decode_us"], err = perCall("crf.decode", len(seqs), func(i int) error {
			d.PredictWithConfidence(seqs[i])
			return nil
		})
	case *lstm.Model:
		b.layer["lstm.predict_us"], err = perCall("lstm.predict", len(seqs), func(i int) error {
			m.Predict(seqs[i])
			return nil
		})
	default:
		err = fmt.Errorf("bundle model %T is neither CRF nor BiLSTM", bnd.Model)
	}
	if err != nil {
		return err
	}
	b.samples["decode"] = len(seqs)
	b.layer["extract.page_us"], err = perCall("extract.page", len(docs), func(i int) error {
		_, err := x.ExtractPage(ctx, docs[i].ID, docs[i].HTML)
		return err
	})
	if err != nil {
		return err
	}
	b.layer["extract.batch_us"], err = perCall("extract.batch", len(docs)/batchSize, func(i int) error {
		_, err := x.ExtractBatch(ctx, docs[i*batchSize:(i+1)*batchSize])
		return err
	})
	if err != nil {
		return err
	}
	b.layer["serve.json_decode_us"], err = perCall("serve.json_decode", len(bodies), func(i int) error {
		var req serve.Request
		return json.Unmarshal(bodies[i], &req)
	})
	if err != nil {
		return err
	}
	b.layer["serve.json_encode_us"], err = perCall("serve.json_encode", len(replies), func(i int) error {
		_, err := json.Marshal(replies[i])
		return err
	})
	return err
}

// Model codecs: the one place in the repository that knows how to turn a
// trained tagger.Model into bytes and back. The bundle file format embeds
// these, and internal/core's checkpoint writer delegates to them, so model
// serialisation cannot fork into parallel wire formats again.
//
// Wire form: one kind byte, then the payload.
//
//	'C'  CRF     crf.Save bytes
//	'R'  BiLSTM  lstm.Save bytes
//	'E'  Ensemble: uint8 mode, uint8 member count, then per member a
//	     uint32 length prefix + a recursively encoded model
package bundle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/crf"
	"repro/internal/lstm"
	"repro/internal/tagger"
)

const (
	kindCRF      = 'C'
	kindRNN      = 'R'
	kindEnsemble = 'E'
)

// ModelKindName names a model the way manifests and inspection tools print
// it: "CRF", "RNN", "ensemble(intersection)".
func ModelKindName(m tagger.Model) string {
	switch m := m.(type) {
	case *crf.Model:
		return "CRF"
	case *lstm.Model:
		return "RNN"
	case *tagger.Ensemble:
		return fmt.Sprintf("ensemble(%s)", m.Mode)
	default:
		return fmt.Sprintf("unknown(%T)", m)
	}
}

// EncodeModel serialises a trained model (CRF, BiLSTM, or an ensemble of
// encodable members) to w. Unknown model kinds — test doubles, future
// backends — fail with ErrUnknownModel so callers can decide between
// skipping the artifact (checkpoints) and aborting (bundles).
func EncodeModel(w io.Writer, m tagger.Model) error {
	switch m := m.(type) {
	case *crf.Model:
		if _, err := w.Write([]byte{kindCRF}); err != nil {
			return err
		}
		return m.Save(w)
	case *lstm.Model:
		if _, err := w.Write([]byte{kindRNN}); err != nil {
			return err
		}
		return m.Save(w)
	case *tagger.Ensemble:
		if len(m.Members) == 0 || len(m.Members) > 255 {
			return fmt.Errorf("%w: ensemble with %d members", ErrUnknownModel, len(m.Members))
		}
		if _, err := w.Write([]byte{kindEnsemble, byte(m.Mode), byte(len(m.Members))}); err != nil {
			return err
		}
		for _, member := range m.Members {
			var buf bytes.Buffer
			if err := EncodeModel(&buf, member); err != nil {
				return err
			}
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(buf.Len()))
			if _, err := w.Write(n[:]); err != nil {
				return err
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrUnknownModel, m)
	}
}

// DecodeModel reads a model previously written by EncodeModel. The reader
// should be scoped to exactly one encoded model: DecodeModel reads it to
// the end. Every failure wraps ErrCorrupt or ErrUnknownModel.
func DecodeModel(r io.Reader) (tagger.Model, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: model: %v", ErrCorrupt, err)
	}
	return decodeModel(raw)
}

// decodeModel decodes one encoded model held in raw. Ensemble members are
// slices of raw, so a length prefix is checked against the bytes that are
// actually left and never sizes an allocation.
func decodeModel(raw []byte) (tagger.Model, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: model kind: %v", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	kind, rest := raw[0], raw[1:]
	switch kind {
	case kindCRF:
		m, err := crf.Load(bytes.NewReader(rest))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return m, nil
	case kindRNN:
		m, err := lstm.Load(bytes.NewReader(rest))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		return m, nil
	case kindEnsemble:
		if len(rest) < 2 {
			return nil, fmt.Errorf("%w: ensemble header: %v", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		mode := tagger.EnsembleMode(rest[0])
		if mode > tagger.Majority {
			return nil, fmt.Errorf("%w: ensemble mode %d", ErrCorrupt, rest[0])
		}
		count := int(rest[1])
		if count == 0 {
			return nil, fmt.Errorf("%w: ensemble with no members", ErrCorrupt)
		}
		rest = rest[2:]
		e := &tagger.Ensemble{Mode: mode}
		for i := 0; i < count; i++ {
			if len(rest) < 4 {
				return nil, fmt.Errorf("%w: ensemble member %d length: %v", ErrCorrupt, i, io.ErrUnexpectedEOF)
			}
			n := binary.BigEndian.Uint32(rest)
			rest = rest[4:]
			if uint64(n) > uint64(len(rest)) {
				return nil, fmt.Errorf("%w: ensemble member %d claims %d bytes, %d left", ErrCorrupt, i, n, len(rest))
			}
			member, err := decodeModel(rest[:n])
			if err != nil {
				return nil, err
			}
			e.Members = append(e.Members, member)
			rest = rest[n:]
		}
		return e, nil
	default:
		return nil, fmt.Errorf("%w: kind byte %q", ErrUnknownModel, kind)
	}
}

// Package core implements the MIE framework itself (paper §V): the
// client-side component that extracts multimodal feature vectors, encodes
// them with DPE and encrypts the objects, and the (untrusted) server-side
// component that trains, indexes and searches repositories over the
// encodings — realizing the five operations of Definition 2:
// CreateRepository, Train, Update, Remove, Search.
//
// The split is the paper's central design move: because DPE encodings
// preserve sub-threshold distances, the two heaviest computations — k-means
// training over image features and index maintenance — run in the cloud on
// encodings instead of on the mobile client on plaintexts, at the price of
// revealing (only) the information patterns itemized in the ideal
// functionality F_MIE (Algorithm 4), at update time rather than query time.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"mie/internal/audio"
	"mie/internal/imaging"
)

// Modality identifies a media format a repository supports.
type Modality string

// Supported modalities. The framework is agnostic to the retrieval
// techniques per modality; text and image match the paper's prototype, and
// audio demonstrates the "any dense media" claim through the same pipeline.
const (
	ModalityText  Modality = "text"
	ModalityImage Modality = "image"
	ModalityAudio Modality = "audio"
)

// Object is a multimodal data object as held by a client: an aggregation of
// media under one deterministic identifier. Any subset of modalities may be
// present.
type Object struct {
	ID    string
	Owner string
	Text  string
	Image *imaging.Image
	Audio *audio.Clip
}

// Marshal serializes the object for encryption under its data key.
func (o *Object) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(o); err != nil {
		return nil, fmt.Errorf("core: marshal object %q: %w", o.ID, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalObject reverses Object.Marshal.
func UnmarshalObject(data []byte) (*Object, error) {
	var o Object
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&o); err != nil {
		return nil, fmt.Errorf("core: unmarshal object: %w", err)
	}
	return &o, nil
}

package core

import (
	"bytes"
	"testing"
)

// FuzzLoadModel: the binary model parser must never panic or allocate
// unboundedly on corrupt input, and anything it accepts must survive a
// save/load round trip.
func FuzzLoadModel(f *testing.F) {
	// Seed with a real model.
	mx := testMatrix(f)
	model, _, err := Train(mx, Config{Seed: 1, Iterations: 1, K: 4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	unknownFlag := bytes.Clone(buf.Bytes())
	unknownFlag[modelFlagsOffset] |= 4
	f.Add(unknownFlag)
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("accepted model failed to save: %v", err)
		}
		if _, err := LoadModel(&out); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

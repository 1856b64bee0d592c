package scenario

import (
	"bytes"
	"testing"
)

// FuzzSpecJSON feeds spec bodies, as they arrive in /sweep requests and
// spec files, to DecodeJSON: every spec it accepts must encode, decode
// again, keep its Hash (the sweep cache key) and re-encode to the same
// bytes. The seed corpus (testdata/fuzz/FuzzSpecJSON) holds the committed
// example specs.
func FuzzSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := DecodeJSON(bytes.NewReader(body))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := sp.EncodeJSON(&first); err != nil {
			t.Fatalf("EncodeJSON of an accepted spec: %v", err)
		}
		again, err := DecodeJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted spec re-encodes to a rejected one: %v\n%s", err, first.Bytes())
		}
		if again.Hash() != sp.Hash() {
			t.Fatalf("hash changed across a round trip: %s -> %s\n%s", sp.Hash(), again.Hash(), first.Bytes())
		}
		var second bytes.Buffer
		if err := again.EncodeJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

package flexclclient

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestReadBody: a body with a Content-Length of at most 1 MiB is read
// into one buffer of exactly that size; an unknown or larger length
// falls back to io.ReadAll, and a body shorter than its length fails.
func TestReadBody(t *testing.T) {
	big := strings.Repeat("x", maxSizedBody+1)
	for _, tc := range []struct {
		name   string
		length int64
		body   string
		exact  bool
	}{
		{"empty", 0, "", true},
		{"sized", 5, "hello", true},
		{"unknown length", -1, "hello", false},
		{"over the cap", int64(len(big)), big, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := readBody(&http.Response{ContentLength: tc.length, Body: io.NopCloser(strings.NewReader(tc.body))})
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != tc.body {
				t.Errorf("read %d bytes, want %d", len(raw), len(tc.body))
			}
			if tc.exact && cap(raw) != len(tc.body) {
				t.Errorf("buffer cap %d for a %d-byte body", cap(raw), len(tc.body))
			}
		})
	}
	_, err := readBody(&http.Response{ContentLength: 10, Body: io.NopCloser(bytes.NewReader([]byte("short")))})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

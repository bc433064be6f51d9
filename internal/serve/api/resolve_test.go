package api

import (
	"net/http"
	"reflect"
	"testing"

	"repro/internal/device"
)

// TestResolvePlatformCatalogue: every resolution of a name returns the
// one catalogue platform, equal to a fresh constructor value, and an
// unknown name is a 400 that lists the catalogue.
func TestResolvePlatformCatalogue(t *testing.T) {
	for name, fresh := range map[string]func() *device.Platform{
		"":        device.Virtex7,
		"virtex7": device.Virtex7,
		"ku060":   device.KU060,
		"u250":    device.AlveoU250,
	} {
		p, _, e := ResolvePlatform(name)
		if e != nil {
			t.Fatalf("ResolvePlatform(%q): %v", name, e)
		}
		if again, _, _ := ResolvePlatform(name); again != p {
			t.Errorf("ResolvePlatform(%q) returned two platforms", name)
		}
		if !reflect.DeepEqual(p, fresh()) {
			t.Errorf("ResolvePlatform(%q) = %+v, want the constructor's value", name, p)
		}
	}
	_, _, e := ResolvePlatform("nope")
	want := `unknown platform "nope" (known: ku060, u250, virtex7)`
	if e == nil || e.Status != http.StatusBadRequest || e.Message != want {
		t.Errorf("ResolvePlatform(\"nope\") = %v, want 400 %q", e, want)
	}
}

package telemetry

import (
	"strings"
	"testing"
)

// The trace ID parsers read untrusted request headers (Traceparent) and
// path segments; their fuzz targets check they never panic and accept
// only what renders back to the ID they return.

func FuzzParseTraceID(f *testing.F) {
	for _, s := range []string{
		"0102030405060708090a0b0c0d0e0f10",
		"0102030405060708090A0B0C0D0E0F10",
		"00000000000000000000000000000000",
		"zz102030405060708090a0b0c0d0e0f0",
		"0102030405060708090a0b0c0d0e0f0102",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, ok := ParseTraceID(s)
		if !ok {
			if !id.IsZero() {
				t.Fatalf("ParseTraceID(%q) rejected but returned %v", s, id)
			}
			return
		}
		if id.IsZero() {
			t.Fatalf("ParseTraceID(%q) accepted the zero ID", s)
		}
		// Accepted input is the ID's own rendering, up to hex case.
		if !strings.EqualFold(id.String(), s) {
			t.Fatalf("ParseTraceID(%q) = %v", s, id)
		}
		if back, ok := ParseTraceID(id.String()); !ok || back != id {
			t.Fatalf("round trip of %v: %v, %v", id, back, ok)
		}
	})
}

func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
		"0af7651916cd43dd8448eb211c80319c",
		"  0af7651916cd43dd8448eb211c80319c  ",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-nothex-00f067aa0ba902b7-01",
		"-0af7651916cd43dd8448eb211c80319c",
		"banana",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			if !id.IsZero() {
				t.Fatalf("ParseTraceparent(%q) rejected but returned %v", h, id)
			}
			return
		}
		if id.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted the zero ID", h)
		}
		// The ID is one dash-separated field of the trimmed header: the
		// whole of it, or the second.
		fields := strings.Split(strings.TrimSpace(h), "-")
		if len(fields) == 1 && !strings.EqualFold(fields[0], id.String()) ||
			len(fields) > 1 && !strings.EqualFold(fields[1], id.String()) {
			t.Fatalf("ParseTraceparent(%q) = %v, not the header's trace-id field", h, id)
		}
		// A header carrying the ID in canonical form parses to it again.
		if back, ok := ParseTraceparent("00-" + id.String() + "-00f067aa0ba902b7-01"); !ok || back != id {
			t.Fatalf("canonical header of %v: %v, %v", id, back, ok)
		}
	})
}

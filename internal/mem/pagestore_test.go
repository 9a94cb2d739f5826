package mem

import (
	"bytes"
	"testing"
)

func TestVersionStoreWriteBumps(t *testing.T) {
	s := NewVersionStore(4)
	if s.Version(2) != 0 {
		t.Fatal("fresh page has nonzero version")
	}
	if v := s.Write(2); v != 1 {
		t.Fatalf("first Write = %d, want 1", v)
	}
	if v := s.Write(2); v != 2 {
		t.Fatalf("second Write = %d, want 2", v)
	}
	if s.Version(3) != 0 {
		t.Fatal("Write leaked to another page")
	}
}

func TestVersionStoreExportImportRoundTrip(t *testing.T) {
	src := NewVersionStore(4)
	dst := NewVersionStore(4)
	src.Write(1)
	src.Write(1)
	src.Write(3)
	for p := PFN(0); p < 4; p++ {
		if err := dst.Import(p, src.Export(p)); err != nil {
			t.Fatal(err)
		}
	}
	for p := PFN(0); p < 4; p++ {
		if dst.Version(p) != src.Version(p) {
			t.Fatalf("page %d: dst %d src %d", p, dst.Version(p), src.Version(p))
		}
	}
}

func TestVersionStoreImportBadPayload(t *testing.T) {
	s := NewVersionStore(1)
	if err := s.Import(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestVersionStoreWireSizeIsPage(t *testing.T) {
	if got := NewVersionStore(1).WireSize(); got != PageSize {
		t.Fatalf("WireSize = %d, want %d", got, PageSize)
	}
}

func TestByteStoreStampDeterministic(t *testing.T) {
	a, b := NewByteStore(2), NewByteStore(2)
	a.Write(1)
	b.Write(1)
	if !bytes.Equal(a.Page(1), b.Page(1)) {
		t.Fatal("same (pfn,version) produced different contents")
	}
	a.Write(1)
	if bytes.Equal(a.Page(1), b.Page(1)) {
		t.Fatal("different versions produced identical contents")
	}
}

func TestByteStoreContentsDifferAcrossPages(t *testing.T) {
	s := NewByteStore(2)
	s.Write(0)
	s.Write(1)
	if bytes.Equal(s.Page(0), s.Page(1)) {
		t.Fatal("distinct pages at same version have identical contents")
	}
}

func TestByteStoreExportImportRoundTrip(t *testing.T) {
	src := NewByteStore(3)
	dst := NewByteStore(3)
	src.Write(0)
	src.Write(2)
	src.Write(2)
	for p := PFN(0); p < 3; p++ {
		if err := dst.Import(p, src.Export(p)); err != nil {
			t.Fatal(err)
		}
	}
	for p := PFN(0); p < 3; p++ {
		if dst.Version(p) != src.Version(p) {
			t.Fatalf("page %d version mismatch", p)
		}
		if !bytes.Equal(dst.Page(p), src.Page(p)) {
			t.Fatalf("page %d content mismatch", p)
		}
	}
}

func TestByteStoreImportBadPayload(t *testing.T) {
	s := NewByteStore(1)
	if err := s.Import(0, make([]byte, PageSize)); err == nil {
		t.Fatal("payload without version header accepted")
	}
}

func TestPageStoreInterfaceCompliance(t *testing.T) {
	var _ PageStore = NewVersionStore(1)
	var _ PageStore = NewByteStore(1)
}

// A run write leaves both stores exactly as the same pages written one at a
// time do.
func TestWritePagesMatchesSinglePageWrites(t *testing.T) {
	run := []PFN{3, 0, 2}
	for _, pair := range [][2]PageStore{
		{NewVersionStore(4), NewVersionStore(4)},
		{NewByteStore(4), NewByteStore(4)},
	} {
		runs, single := pair[0], pair[1]
		runs.WritePages(run)
		runs.WritePages(run[:1])
		for _, p := range append(run, run[0]) {
			single.WritePages([]PFN{p})
		}
		for p := PFN(0); p < 4; p++ {
			if !bytes.Equal(runs.Export(p), single.Export(p)) {
				t.Fatalf("%T page %d differs after run writes", runs, p)
			}
		}
		if runs.Version(3) != 2 || runs.Version(1) != 0 {
			t.Fatalf("%T versions %d/%d, want 2/0", runs, runs.Version(3), runs.Version(1))
		}
	}
}

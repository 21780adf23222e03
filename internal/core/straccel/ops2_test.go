package straccel

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/strlib"
)

func TestNL2BREquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(s []byte) bool {
		return string(a.NL2BR(s)) == string(ref.NL2BR(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Targeted \r\n handling, including a pair at a block boundary.
	in := []byte(strings.Repeat("x", 63) + "\r\n" + "tail")
	if string(a.NL2BR(in)) != string(ref.NL2BR(in)) {
		t.Errorf("\\r\\n across block boundary mishandled")
	}
}

func TestAddSlashesEquivalence(t *testing.T) {
	a := New(DefaultConfig())
	var ref strlib.Lib
	f := func(s []byte) bool {
		return string(a.AddSlashes(s)) == string(ref.AddSlashes(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNL2BRChargesBlocks(t *testing.T) {
	a := New(DefaultConfig())
	a.NL2BR(make([]byte, 200))
	if a.Stats().Blocks != 4 {
		t.Errorf("200 bytes should stream 4 blocks, got %d", a.Stats().Blocks)
	}
	a = New(DefaultConfig())
	a.NL2BR(nil)
	if a.Stats().Blocks != 1 {
		t.Errorf("empty subject still issues one pass, got %d", a.Stats().Blocks)
	}
}

// TestConfigSurvivesSaveRestore: strwriteconfig hands the OS a copy of
// the rows, and strreadconfig puts them back after another process has
// loaded its own.
func TestConfigSurvivesSaveRestore(t *testing.T) {
	a := New(DefaultConfig())
	a.LoadConfig(RangeRow('a', 'z', 0xE0))
	saved := a.SaveConfig()
	a.LoadConfig(RangeRow('0', '9', 1)) // another process's configuration
	a.LoadConfig(saved)                 // context switch back
	if len(a.cur.rows) != 1 || a.cur.rows[0] != (row{lo: 'a', hi: 'z', sub: 0xE0}) {
		t.Errorf("restored configuration wrong: %+v", a.cur.rows)
	}
	if st := a.Stats(); st.ConfigSaves != 1 || st.ConfigLoads != 3 {
		t.Errorf("config traffic = %d saves, %d loads, want 1 and 3", st.ConfigSaves, st.ConfigLoads)
	}
}

package govern

import (
	"runtime/debug"
	"testing"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"4K", 4 << 10, false},
		{"512M", 512 << 20, false},
		{"512MiB", 512 << 20, false},
		{"512mb", 512 << 20, false},
		{"2G", 2 << 30, false},
		{"1T", 1 << 40, false},
		{" 64 M ", 64 << 20, false},
		{"x", 0, true},
		{"12Q", 0, true},
		{"-5M", 0, true},
		{"99999999999999G", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseBytes(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSetupDerivesWatermarksAndLimit(t *testing.T) {
	prev := debug.SetMemoryLimit(-1)
	defer debug.SetMemoryLimit(prev)

	if g, err := Setup("", "", nil); err != nil || g != nil {
		t.Fatalf("empty flags: g=%v err=%v, want nil, nil", g, err)
	}
	if _, err := Setup("junk", "", nil); err == nil {
		t.Fatal("bad -mem-high accepted")
	}
	if _, err := Setup("", "junk", nil); err == nil {
		t.Fatal("bad -mem-limit accepted")
	}

	g, err := Setup("", "1G", nil)
	if err != nil || g == nil {
		t.Fatalf("Setup(-mem-limit=1G): g=%v err=%v", g, err)
	}
	if got := debug.SetMemoryLimit(-1); got != 1<<30 {
		t.Errorf("runtime memory limit = %d, want %d", got, 1<<30)
	}
	limit := uint64(1 << 30)
	cfg := g.cfg
	if cfg.HighBytes != limit/10*7 || cfg.CriticalBytes != limit/100*85 {
		t.Errorf("derived watermarks = %d/%d, want 70/85%% of %d",
			cfg.HighBytes, cfg.CriticalBytes, limit)
	}

	g2, err := Setup("200M", "", nil)
	if err != nil || g2 == nil {
		t.Fatalf("Setup(high): g=%v err=%v", g2, err)
	}
	if g2.cfg.HighBytes != 200<<20 || g2.cfg.CriticalBytes != 0 {
		t.Errorf("explicit watermarks = %d/%d", g2.cfg.HighBytes, g2.cfg.CriticalBytes)
	}
}

package qos

import (
	"errors"
	"testing"
	"time"
)

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"off", Unlimited, true},
		{"10M", 10 << 20, true},
		{"512k", 512 << 10, true},
		{"1G", 1 << 30, true},
		{"100", 100 << 10, true}, // bare figures are KiB/s
		{"4096B", 4096, true},
		{"1.5M", 3 << 19, true},
		{"0", 0, false},
		{"-5M", 0, false},
		{"fast", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseRate(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseRate(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("ParseRate(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseTimetable(t *testing.T) {
	tt, err := ParseTimetable("08:00,10M 18:00,off")
	if err != nil {
		t.Fatal(err)
	}
	if len(tt) != 2 {
		t.Fatalf("got %d slots, want 2", len(tt))
	}
	// Before 08:00 the previous day's last slot (off) is in effect.
	if r := tt.RateAt(6 * time.Hour); r != Unlimited {
		t.Errorf("06:00 rate = %d, want off", r)
	}
	if r := tt.RateAt(9 * time.Hour); r != 10<<20 {
		t.Errorf("09:00 rate = %d, want 10M", r)
	}
	if r := tt.RateAt(23 * time.Hour); r != Unlimited {
		t.Errorf("23:00 rate = %d, want off", r)
	}
	// Cyclic across days.
	if r := tt.RateAt(Day + 9*time.Hour); r != 10<<20 {
		t.Errorf("day+09:00 rate = %d, want 10M", r)
	}

	bare, err := ParseTimetable("4M")
	if err != nil {
		t.Fatal(err)
	}
	if r := bare.RateAt(15 * time.Hour); r != 4<<20 {
		t.Errorf("bare rate = %d, want 4M", r)
	}

	for _, bad := range []string{
		"", "18:00,off", "08:00,10M 08:00,1M", "08:00,10M 06:00,1M",
		"8am,10M", "25:00,10M", "08:61,10M", "08:00;10M", "08:00,zoom",
	} {
		if _, err := ParseTimetable(bad); err == nil {
			t.Errorf("ParseTimetable(%q): want error", bad)
		}
	}
}

func TestTimetableRoundTrip(t *testing.T) {
	for _, s := range []string{"10M", "08:00,10M 18:00,off", "00:30,512k 12:00,1G 23:45,off"} {
		tt, err := ParseTimetable(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := tt.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestBucketSteadyRate(t *testing.T) {
	tt, _ := ParseTimetable("1M") // 1 MiB/s all day
	b := NewBucket(tt, 0, 1)
	// Burst defaults to 1s of rate: the first 1 MiB is free.
	if d := b.Take(0, 1<<20); d != 0 {
		t.Fatalf("burst take delayed %v", d)
	}
	// The next 1 MiB must wait ~1 second.
	d := b.Take(0, 1<<20)
	if d != time.Second {
		t.Fatalf("deficit delay = %v, want 1s", d)
	}
	// After the predicted delay the deficit has drained.
	if d := b.Take(time.Second, 0); d != 0 {
		t.Fatalf("post-drain take delayed %v", d)
	}
	// Tokens accrue while idle, capped at burst.
	b2 := NewBucket(tt, 0, 1)
	b2.Take(0, 1<<20)
	b2.advance(10 * time.Second)
	if b2.Level() != 1<<20 {
		t.Fatalf("level after idle = %d, want burst %d", b2.Level(), 1<<20)
	}
}

func TestBucketOffWindowForgives(t *testing.T) {
	tt, _ := ParseTimetable("08:00,1M 18:00,off")
	b := NewBucket(tt, 0, 1)
	at := 17*time.Hour + 59*time.Minute + 59*time.Second
	b.advance(at)
	// Charge far beyond the remaining second of the limited window: the
	// delay runs only until the off slot opens.
	d := b.Take(at, 100<<20)
	if d != time.Second {
		t.Fatalf("delay into off window = %v, want 1s", d)
	}
	// During the off window everything is free.
	if d := b.Take(20*time.Hour, 100<<20); d != 0 {
		t.Fatalf("off-window take delayed %v", d)
	}
}

func TestBucketShardShare(t *testing.T) {
	tt, _ := ParseTimetable("2M")
	full := NewBucket(tt, 0, 1)
	half := NewBucket(tt, 0, 2)
	full.Take(0, 2<<20) // drain burst
	half.Take(0, 1<<20) // drain scaled burst
	df := full.Take(0, 2<<20)
	dh := half.Take(0, 1<<20)
	if df != time.Second || dh != time.Second {
		t.Fatalf("full=%v half=%v, want 1s each (rate and burst both halved)", df, dh)
	}
}

func TestBucketDeepDeficitDaySkip(t *testing.T) {
	tt, _ := ParseTimetable("08:00,1M 18:00,4k") // no off slot
	b := NewBucket(tt, 0, 1)
	b.advance(9 * time.Hour)
	d := b.Take(9*time.Hour, 200<<30) // far beyond a day's budget
	if d <= Day {
		t.Fatalf("deep deficit delay = %v, want > a day", d)
	}
	// Determinism: same sequence, same delay.
	b2 := NewBucket(tt, 0, 1)
	b2.advance(9 * time.Hour)
	if d2 := b2.Take(9*time.Hour, 200<<30); d2 != d {
		t.Fatalf("replayed delay %v != %v", d2, d)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := &Config{Tenants: map[string]Tenant{
		"alice": {Class: ClassLatency, Bandwidth: "08:00,10M 18:00,off"},
		"bob":   {Class: ClassBulk, Bandwidth: "1M", MaxDeferred: 8},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilCfg *Config
	if err := nilCfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*Config{
		"bad schedule":  {Tenants: map[string]Tenant{"a": {Bandwidth: "zoom"}}},
		"neg burst":     {Tenants: map[string]Tenant{"a": {BurstBytes: -1}}},
		"neg deferred":  {Tenants: map[string]Tenant{"a": {MaxDeferred: -1}}},
		"bad class":     {Tenants: map[string]Tenant{"a": {Class: 9}}},
		"empty name":    {Tenants: map[string]Tenant{"": {}}},
		"all-off sched": {Tenants: map[string]Tenant{"a": {Bandwidth: "00:00,off"}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestConfigQueries(t *testing.T) {
	c := &Config{
		Strict: true,
		Tenants: map[string]Tenant{
			"alice": {Class: ClassLatency},
			"bob":   {Bandwidth: "1M"},
		},
	}
	if c.ClassOf("alice") != ClassLatency || c.ClassOf("bob") != ClassStandard {
		t.Fatal("ClassOf mismatch")
	}
	if !c.Known("alice") || !c.Known("") || c.Known("mallory") {
		t.Fatal("Known mismatch")
	}
	if !c.Shaped() {
		t.Fatal("Shaped should be true")
	}
	if got := c.Names(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Names = %v", got)
	}
	bk, err := c.Bucket("bob", 1)
	if err != nil || bk == nil {
		t.Fatalf("Bucket(bob) = %v, %v", bk, err)
	}
	if bk, err := c.Bucket("alice", 1); err != nil || bk != nil {
		t.Fatalf("Bucket(alice) = %v, %v (want nil, no schedule)", bk, err)
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": ClassStandard, "standard": ClassStandard, "latency": ClassLatency, "bulk": ClassBulk} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseClass("turbo"); err == nil {
		t.Error("ParseClass(turbo): want error")
	}
	if ClassLatency.String() != "latency" || ClassBulk.String() != "bulk" || ClassStandard.String() != "standard" {
		t.Error("Class.String mismatch")
	}
}

func TestSentinels(t *testing.T) {
	if !errors.Is(ErrUnknownTenant, ErrUnknownTenant) || errors.Is(ErrUnknownTenant, ErrAdmissionRejected) {
		t.Fatal("sentinel identity broken")
	}
}

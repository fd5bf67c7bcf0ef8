package core

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cpr/internal/journal"
	"cpr/internal/smt"
)

// statsLeaf is one non-struct field of a stats struct, reached through
// its embedded structs.
type statsLeaf struct {
	path  string
	field reflect.StructField
	v     reflect.Value
}

// statsLeaves flattens v (a struct) into its leaf fields, descending into
// embedded structs the way encoding/json and field promotion do.
func statsLeaves(v reflect.Value, path string) []statsLeaf {
	var out []statsLeaf
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Anonymous {
			out = append(out, statsLeaves(v.Field(i), path+f.Name+".")...)
			continue
		}
		out = append(out, statsLeaf{path + f.Name, f, v.Field(i)})
	}
	return out
}

// fillLeaves sets every leaf of *ptr to a distinct nonzero value, so a
// sum or codec that drops or swaps a field shows up as a mismatch.
func fillLeaves(t *testing.T, ptr any) {
	t.Helper()
	for i, l := range statsLeaves(reflect.ValueOf(ptr).Elem(), "") {
		switch l.v.Kind() {
		case reflect.Int, reflect.Int64:
			l.v.SetInt(int64(i + 1))
		case reflect.Uint64:
			l.v.SetUint(uint64(i + 1))
		case reflect.Bool:
			l.v.SetBool(true)
		default:
			t.Fatalf("%s: unhandled kind %s", l.path, l.v.Kind())
		}
	}
}

// diffLeaves reports every leaf on which got and want differ, skipping
// the leaves skip (when non-nil) accepts.
func diffLeaves(t *testing.T, got, want any, skip func(statsLeaf) bool) {
	t.Helper()
	g := statsLeaves(reflect.ValueOf(got), "")
	for i, w := range statsLeaves(reflect.ValueOf(want), "") {
		if skip != nil && skip(w) {
			continue
		}
		if !reflect.DeepEqual(g[i].v.Interface(), w.v.Interface()) {
			t.Errorf("%s = %v, want %v", w.path, g[i].v.Interface(), w.v.Interface())
		}
	}
}

// TestStatsDeclaredOnce guards the single declaration of every engine
// counter. Each leaf of Stats — its own fields and those of the embedded
// smt.Stats and MemStats — needs a unique snake_case json tag, since the
// tags are the key names of every JSON output; and Add must carry every
// leaf, so adding a counter stays a one-line change.
func TestStatsDeclaredOnce(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	owner := map[string]string{}
	for _, l := range statsLeaves(reflect.ValueOf(Stats{}), "") {
		name, _, _ := strings.Cut(l.field.Tag.Get("json"), ",")
		switch {
		case !snake.MatchString(name):
			t.Errorf("%s: json name %q is not snake_case", l.path, name)
		case owner[name] != "":
			t.Errorf("%s: json name %q already names %s", l.path, name, owner[name])
		}
		owner[name] = l.path
	}

	var b Stats
	fillLeaves(t, &b)
	// Adding zero changes nothing.
	diffLeaves(t, b.Add(Stats{}), b, nil)
	// Into a zero receiver, Add copies every leaf except Workers and
	// TimedOut, which keep the receiver's value.
	want := b
	want.Workers, want.TimedOut = 0, false
	diffLeaves(t, Stats{}.Add(b), want, nil)

	// Onto itself, Add doubles every counter; the peaks take the larger
	// value, MemStopped the or, and Workers and TimedOut keep b's value.
	want = b
	for _, l := range statsLeaves(reflect.ValueOf(&want).Elem(), "") {
		if l.path == "Workers" || strings.Contains(l.path, "Peak") {
			continue
		}
		switch l.v.Kind() {
		case reflect.Int, reflect.Int64:
			l.v.SetInt(2 * l.v.Int())
		case reflect.Uint64:
			l.v.SetUint(2 * l.v.Uint())
		}
	}
	diffLeaves(t, b.Add(b), want, nil)
}

// TestSolverStatsCodecRoundTrip round-trips a fully populated smt.Stats
// through the snapshot codec engine and baseline snapshots share. Every
// counter must survive; the wall-time fields are not run state and are
// not encoded.
func TestSolverStatsCodecRoundTrip(t *testing.T) {
	var want smt.Stats
	fillLeaves(t, &want)
	var m journal.Encoder
	smt.EncodeSolverStats(&m, want)
	d := journal.NewDecoder(m.Bytes())
	var got smt.Stats
	smt.DecodeSolverStats(d, &got)
	if err := d.Err(); err != nil || len(d.Rest()) != 0 {
		t.Fatalf("decode: err %v, %d bytes left over", err, len(d.Rest()))
	}
	diffLeaves(t, got, want, func(l statsLeaf) bool {
		return l.field.Type == reflect.TypeOf(time.Duration(0))
	})
}

package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edc/internal/obs"
)

// TestLintDocsStaleMentions runs the document check over a two-package
// module: a stale edc.X, a stale bare WithX, and a bare WithX that is a
// live method of another package, which must pass.
func TestLintDocsStaleMentions(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("edc.go", "package edc\n\n// Live is exported.\nfunc Live() {}\n")
	write("edc_test.go", "package edc\n\nfunc WithTestOnly() {}\n")
	write("internal/datagen/datagen.go",
		"package datagen\n\n// Profile is a profile.\ntype Profile struct{}\n\n// WithDup is a method.\nfunc (p Profile) WithDup() Profile { return p }\n")
	write("README.md", "Call `edc.Live`, not `edc.Gone`.\n\n"+
		"Set `WithGone(2)`; a profile takes `WithDup`.\n\n"+
		"```\nx := WithTestOnly()\n```\n")

	got, err := lintDocs(root, []string{"README.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md:1: edc.Gone is not exported by package edc",
		"README.md:3: WithGone is not an exported func or method of the module",
		"README.md:6: WithTestOnly is not an exported func or method of the module",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lintDocs = %q\nwant %q", got, want)
	}
}

// TestLintCounters checks a counter table against two families: a row
// that matches, one whose meaning drifted, one whose labels did, one
// naming no family, and a family the table leaves out.
func TestLintCounters(t *testing.T) {
	fams := []obs.Family{
		{Name: "edc_a_total", Help: "a things"},
		{Name: "edc_b_total", Labels: []string{"op", "kind"}, Help: "b things by op and kind"},
		{Name: "edc_c_total", Labels: []string{"op"}, Help: "c things"},
		{Name: "edc_d_total", Help: "d things"},
	}
	doc := "## Counters\n\n| counter | labels | meaning |\n|---|---|---|\n" +
		"| `edc_a_total` | — | a things |\n" +
		"| `edc_b_total` | `op`, `kind` | b things, by op and kind |\n" +
		"| `edc_c_total` | `op`, `kind` | c things |\n" +
		"| `edc_x_total` | — | x things |\n\nAfter the table.\n| not | a | row |\n"
	got := lintCounters("OBS.md", []byte(doc), fams)
	want := []string{
		`OBS.md:6: edc_b_total reads labels ["op" "kind"], meaning "b things, by op and kind"; the code declares ["op" "kind"], "b things by op and kind"`,
		`OBS.md:7: edc_c_total reads labels ["op" "kind"], meaning "c things"; the code declares ["op"], "c things"`,
		"OBS.md:8: edc_x_total is not a counter family of internal/obs",
		"OBS.md: the counter table does not list edc_d_total",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lintCounters = %q\nwant %q", got, want)
	}
}

// TestSizesCountsOptions renders the budget of a small module: the
// options line counts the root package's exported With* funcs, WithoutX
// included, and neither methods, unexported funcs, other packages nor
// test files.
func TestSizesCountsOptions(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("edc.go", "package edc\n\ntype T struct{}\n\nfunc WithA() {}\nfunc WithoutB() {}\nfunc withC() {}\nfunc (T) WithD() {}\n")
	write("edc_test.go", "package edc\n\nfunc WithTestOnly() {}\n")
	write("internal/x/x.go", "package x\n\nfunc WithX() {}\n")
	write("DESIGN.md", "one\ntwo\n")
	got, err := sizes(root)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	want := []string{"DESIGN.md 2", "options 2"}
	if tail := lines[len(lines)-len(want):]; !reflect.DeepEqual(tail, want) {
		t.Fatalf("sizes ends %q, want %q", tail, want)
	}
}

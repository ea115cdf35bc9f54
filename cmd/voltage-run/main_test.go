package main

import (
	"strings"
	"testing"
)

func TestRunTinyCompare(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "tiny", "-k", "2", "-compare", "-words", "20"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"[single]", "[voltage]", "[tensor-parallel]", "class="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSingleStrategy(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "tiny", "-k", "3", "-strategy", "voltage", "-text", "hello world"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[voltage]") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunTPAlias(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "tiny", "-k", "2", "-strategy", "tp", "-words", "8"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[tensor-parallel]") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunGeneration(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "tiny-decoder", "-k", "2", "-generate", "3", "-words", "5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "generated 3 tokens") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunVision(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "tiny-vision", "-k", "2", "-strategy", "voltage"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "class=") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "bogus"}, &sb); err == nil {
		t.Fatal("want error for unknown model")
	}
	if err := run([]string{"-model", "tiny", "-strategy", "bogus"}, &sb); err == nil {
		t.Fatal("want error for unknown strategy")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Fatal("want error for bad flag")
	}
}

func TestRunWordClamping(t *testing.T) {
	// tiny's MaxSeq is 64; -words 500 must be clamped, not fail.
	var sb strings.Builder
	if err := run([]string{"-model", "tiny", "-k", "2", "-words", "500"}, &sb); err != nil {
		t.Fatal(err)
	}
}

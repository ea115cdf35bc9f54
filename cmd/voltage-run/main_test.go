package main

import (
	"strings"
	"testing"
)

func TestRunText(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "tiny", "-k", "3", "-text", "hello world"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "class=") || !strings.Contains(sb.String(), "worker-bytes=") {
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
	err := run([]string{"-model", "tiny-vision", "-k", "2"}, &sb)
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
	if err := run([]string{"-model", "tiny", "-generate", "2"}, &sb); err == nil {
		t.Fatal("want error for generation on an encoder")
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

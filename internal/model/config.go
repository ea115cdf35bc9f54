// Package model implements complete transformer models — configuration,
// weights, embeddings, transformer layers (full and partitioned per
// Algorithm 1 of the Voltage paper) and task heads — on top of the tensor
// substrate. The three presets mirror the models the paper evaluates:
// BERT-Large-Uncased, GPT-2 and ViT-Base.
package model

import (
	"fmt"

	"voltage/internal/tensor"
)

// Kind distinguishes the input modality / attention style of a model.
type Kind int

// Supported model kinds.
const (
	// KindEncoder is a bidirectional encoder over token sequences (BERT).
	KindEncoder Kind = iota + 1
	// KindDecoder is a causal decoder over token sequences (GPT-2).
	KindDecoder
	// KindVision is an encoder over image patch sequences (ViT).
	KindVision
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEncoder:
		return "encoder"
	case KindDecoder:
		return "decoder"
	case KindVision:
		return "vision"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes a transformer model architecture.
type Config struct {
	Name       string
	Kind       Kind
	Layers     int               // number of stacked transformer layers
	F          int               // model feature dimensionality (hidden size)
	Heads      int               // attention heads H
	FFN        int               // feed-forward inner dimensionality
	Act        tensor.Activation // FFN activation
	VocabSize  int               // token vocabulary (encoder/decoder)
	MaxSeq     int               // maximum sequence length (position table)
	NumClasses int               // classifier output classes
	// Vision-only fields.
	ImageSize int // input image side length in pixels
	PatchSize int // square patch side length
	Channels  int // image channels
	// LayerNormEps is the layer-norm stabilizer; 0 means 1e-5.
	LayerNormEps float32
}

// FH returns the per-head feature dimensionality F/H.
func (c Config) FH() int { return c.F / c.Heads }

// Eps returns the effective layer-norm epsilon.
func (c Config) Eps() float32 {
	if c.LayerNormEps == 0 {
		return 1e-5
	}
	return c.LayerNormEps
}

// SeqLen returns the transformer sequence length for the given raw input
// length: for vision models it is the patch count plus the class token and
// ignores the argument; for token models it is the token count itself.
func (c Config) SeqLen(tokens int) int {
	if c.Kind == KindVision {
		side := c.ImageSize / c.PatchSize
		return side*side + 1 // +1 class token
	}
	return tokens
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Layers < 1:
		return fmt.Errorf("model: %s: layers %d < 1", c.Name, c.Layers)
	case c.F < 1 || c.Heads < 1 || c.F%c.Heads != 0:
		return fmt.Errorf("model: %s: F %d not divisible by heads %d", c.Name, c.F, c.Heads)
	case c.FFN < 1:
		return fmt.Errorf("model: %s: FFN %d < 1", c.Name, c.FFN)
	case c.Kind == KindVision && (c.PatchSize < 1 || c.ImageSize%c.PatchSize != 0 || c.Channels < 1):
		return fmt.Errorf("model: %s: image %d patch %d channels %d inconsistent",
			c.Name, c.ImageSize, c.PatchSize, c.Channels)
	case c.Kind != KindVision && (c.VocabSize < 1 || c.MaxSeq < 1):
		return fmt.Errorf("model: %s: vocab %d maxseq %d", c.Name, c.VocabSize, c.MaxSeq)
	}
	return nil
}

// BERTLarge returns the BERT-Large-Uncased architecture used in the paper's
// text-classification experiments: 24 layers, F=1024, H=16, FFN=4096, GELU.
func BERTLarge() Config {
	return Config{
		Name: "bert-large-uncased", Kind: KindEncoder,
		Layers: 24, F: 1024, Heads: 16, FFN: 4096, Act: tensor.GELU,
		VocabSize: 30522, MaxSeq: 512, NumClasses: 2,
	}
}

// GPT2 returns the GPT-2 (small, 124M) architecture: 12 layers, F=768,
// H=12, FFN=3072, GELU, causal attention.
func GPT2() Config {
	return Config{
		Name: "gpt2", Kind: KindDecoder,
		Layers: 12, F: 768, Heads: 12, FFN: 3072, Act: tensor.GELU,
		VocabSize: 50257, MaxSeq: 1024, NumClasses: 2,
	}
}

// ViTBase returns the ViT-Base/16 architecture for 224×224 images: 12
// layers, F=768, H=12, FFN=3072, GELU, sequence length 197 (196 patches +
// class token).
func ViTBase() Config {
	return Config{
		Name: "vit-base-patch16-224", Kind: KindVision,
		Layers: 12, F: 768, Heads: 12, FFN: 3072, Act: tensor.GELU,
		NumClasses: 1000, ImageSize: 224, PatchSize: 16, Channels: 3,
	}
}

// Tiny returns a small encoder configuration for fast tests: 2 layers,
// F=32, H=4, FFN=64.
func Tiny() Config {
	return Config{
		Name: "tiny", Kind: KindEncoder,
		Layers: 2, F: 32, Heads: 4, FFN: 64, Act: tensor.GELU,
		VocabSize: 100, MaxSeq: 64, NumClasses: 2,
	}
}

// TinyDecoder returns a small causal decoder configuration for fast tests.
func TinyDecoder() Config {
	c := Tiny()
	c.Name = "tiny-decoder"
	c.Kind = KindDecoder
	return c
}

// TinyVision returns a small vision configuration for fast tests: 16×16
// images in 4×4 patches (17 positions with the class token).
func TinyVision() Config {
	return Config{
		Name: "tiny-vision", Kind: KindVision,
		Layers: 2, F: 32, Heads: 4, FFN: 64, Act: tensor.GELU,
		NumClasses: 10, ImageSize: 16, PatchSize: 4, Channels: 3,
	}
}

// Presets returns the named architecture, matching the paper's model set.
func Presets(name string) (Config, error) {
	switch name {
	case "bert", "bert-large", "bert-large-uncased":
		return BERTLarge(), nil
	case "gpt2":
		return GPT2(), nil
	case "vit", "vit-base", "vit-base-patch16-224":
		return ViTBase(), nil
	case "tiny":
		return Tiny(), nil
	case "tiny-decoder":
		return TinyDecoder(), nil
	case "tiny-vision":
		return TinyVision(), nil
	default:
		return Config{}, fmt.Errorf("model: unknown preset %q", name)
	}
}

// CheckTokens reports why ids is not a token sequence the model embeds: a
// vision model, no tokens, more than MaxSeq of them, or an id outside the
// vocabulary. It needs no weights, so a gateway can run it before a request
// is admitted.
func (c Config) CheckTokens(ids []int) error {
	if c.Kind == KindVision {
		return fmt.Errorf("model: %s is a vision model; use EmbedImage", c.Name)
	}
	if len(ids) == 0 {
		return fmt.Errorf("model: empty token sequence")
	}
	if len(ids) > c.MaxSeq {
		return fmt.Errorf("model: sequence length %d exceeds max %d", len(ids), c.MaxSeq)
	}
	for _, id := range ids {
		if id < 0 || id >= c.VocabSize {
			return fmt.Errorf("model: token id %d outside vocab %d", id, c.VocabSize)
		}
	}
	return nil
}

// Scaled returns a copy of c with the layer count replaced, used by the
// benchmark harness to run paper-shaped models at laptop-tractable depth.
func (c Config) Scaled(layers int) Config {
	c.Layers = layers
	return c
}

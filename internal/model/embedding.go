package model

import (
	"fmt"

	"voltage/internal/tensor"
)

// Embedding converts raw inputs (token ids or images) into the N×F feature
// sequence consumed by the transformer stack. It plays the role of the
// paper's terminal-device "pre-processing" step.
type Embedding struct {
	cfg Config

	// Token models.
	tokenTable *tensor.Matrix // VocabSize×F
	posTable   *tensor.Matrix // MaxSeq×F

	// Vision models.
	patchProj  *tensor.Matrix // (PatchSize²·Channels)×F
	patchBias  []float32
	classToken []float32      // F
	posVision  *tensor.Matrix // (numPatches+1)×F

	lnGain, lnBias []float32 // embedding layer norm (BERT-style)
}

// NewRandomEmbedding builds a deterministic embedding block for cfg.
func NewRandomEmbedding(cfg Config, rng *tensor.RNG) (*Embedding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Embedding{
		cfg:    cfg,
		lnGain: tensor.Ones(cfg.F),
		lnBias: tensor.Zeros(cfg.F),
	}
	if cfg.Kind == KindVision {
		patchDim := cfg.PatchSize * cfg.PatchSize * cfg.Channels
		side := cfg.ImageSize / cfg.PatchSize
		e.patchProj = rng.XavierNormal(patchDim, cfg.F)
		e.patchBias = tensor.Zeros(cfg.F)
		e.classToken = rng.NormalVec(cfg.F, 0.02)
		e.posVision = rng.Normal(side*side+1, cfg.F, 0.02)
		return e, nil
	}
	e.tokenTable = rng.Normal(cfg.VocabSize, cfg.F, 0.02)
	e.posTable = rng.Normal(cfg.MaxSeq, cfg.F, 0.02)
	return e, nil
}

// CheckTokens reports why ids is not a sequence EmbedTokens accepts
// (Config.CheckTokens). Devices run it on ids that arrive over the wire.
func (e *Embedding) CheckTokens(ids []int) error { return e.cfg.CheckTokens(ids) }

// EmbedTokens maps token ids to the N×F input features (token embedding +
// position embedding, layer-normalized).
func (e *Embedding) EmbedTokens(ids []int) (*tensor.Matrix, error) {
	if err := e.CheckTokens(ids); err != nil {
		return nil, err
	}
	out := tensor.New(len(ids), e.cfg.F)
	for i, id := range ids {
		dst := out.Row(i)
		tok := e.tokenTable.Row(id)
		pos := e.posTable.Row(i)
		for j := range dst {
			dst[j] = tok[j] + pos[j]
		}
	}
	return tensor.LayerNorm(out, e.lnGain, e.lnBias, e.cfg.Eps())
}

// Image is a dense Channels×Height×Width image in [0,1] stored
// channel-major.
type Image struct {
	Channels, Height, Width int
	Pixels                  []float32
}

// NewImage allocates a zero image.
func NewImage(channels, height, width int) *Image {
	return &Image{
		Channels: channels, Height: height, Width: width,
		Pixels: make([]float32, channels*height*width),
	}
}

// At returns the pixel at (channel c, row y, column x).
func (im *Image) At(c, y, x int) float32 {
	return im.Pixels[(c*im.Height+y)*im.Width+x]
}

// Set assigns the pixel at (channel c, row y, column x).
func (im *Image) Set(c, y, x int, v float32) {
	im.Pixels[(c*im.Height+y)*im.Width+x] = v
}

// RandomImage generates a deterministic synthetic image, standing in for
// the paper's "224 × 224 image" test input.
func RandomImage(rng *tensor.RNG, channels, size int) *Image {
	im := NewImage(channels, size, size)
	for i := range im.Pixels {
		im.Pixels[i] = float32(rng.Float64())
	}
	return im
}

// EmbedImage converts an image into the ViT input sequence: non-overlapping
// PatchSize×PatchSize patches are flattened, linearly projected to F, a
// learned class token is prepended and position embeddings added. For
// 224×224/16 this yields the paper's N = 197.
func (e *Embedding) EmbedImage(im *Image) (*tensor.Matrix, error) {
	if e.cfg.Kind != KindVision {
		return nil, fmt.Errorf("model: %s is a token model; use EmbedTokens", e.cfg.Name)
	}
	if im.Channels != e.cfg.Channels || im.Height != e.cfg.ImageSize || im.Width != e.cfg.ImageSize {
		return nil, fmt.Errorf("model: image %dx%dx%d, want %dx%dx%d",
			im.Channels, im.Height, im.Width, e.cfg.Channels, e.cfg.ImageSize, e.cfg.ImageSize)
	}
	ps := e.cfg.PatchSize
	side := e.cfg.ImageSize / ps
	patchDim := ps * ps * im.Channels
	patches := tensor.New(side*side, patchDim)
	for py := 0; py < side; py++ {
		for px := 0; px < side; px++ {
			row := patches.Row(py*side + px)
			idx := 0
			for c := 0; c < im.Channels; c++ {
				for dy := 0; dy < ps; dy++ {
					for dx := 0; dx < ps; dx++ {
						row[idx] = im.At(c, py*ps+dy, px*ps+dx)
						idx++
					}
				}
			}
		}
	}
	proj, err := tensor.MatMul(patches, e.patchProj)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddBiasInPlace(proj, e.patchBias); err != nil {
		return nil, err
	}
	// Prepend class token.
	out := tensor.New(side*side+1, e.cfg.F)
	copy(out.Row(0), e.classToken)
	for i := 0; i < side*side; i++ {
		copy(out.Row(i+1), proj.Row(i))
	}
	// Position embeddings.
	if err := tensor.AddInPlace(out, e.posVision); err != nil {
		return nil, err
	}
	return out, nil
}

package comm

import (
	"context"

	"voltage/internal/partition"
	"voltage/internal/quantize"
	"voltage/internal/tensor"
)

// GatherToQ is Exchange.GatherTo with int8 activation quantization on the
// wire: each rank quantizes its partition (per-row absmax), the blobs are
// exchanged at ≈¼ the float32 size, and every reader dequantizes into the
// assembled matrix — its own rows too, so all readers of a row hold the same
// values. The result is approximate within quantize.MaxError of each
// contribution; the surrounding layer norms keep the error from compounding
// across layers.
func GatherToQ(ctx context.Context, p Peer, readers Readers, mine *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error) {
	if err := checkPartition(p, mine, ranges); err != nil {
		return nil, err
	}
	q := quantize.Quantize(mine)
	blobs, err := GatherTo(ctx, p, readers, quantize.Encode(nil, q))
	if err != nil || blobs == nil {
		return nil, err
	}
	return NewExchange(nil).assemble(p, readers, q.Dequantize(), ranges, blobs,
		func(_ *tensor.MatrixPool, blob []byte) (*tensor.Matrix, error) {
			part, _, err := quantize.Decode(blob)
			if err != nil {
				return nil, err
			}
			return part.Dequantize(), nil
		})
}

package persist

import (
	"os"

	"cliquemap/internal/core/proto"
)

// Whole frames for the decoder tests and fuzz seeds to assemble files from.

func EncodeHeaderFrame(h Header) []byte { return appendHeader(nil, h) }

func EncodeRecordFrame(it proto.MigrateItem) []byte { return appendFrame(nil, frameRecord, &it) }

func EncodeFooterFrame(count uint64) []byte { return appendFrame(nil, frameFooter, &footer{count}) }

// CheckpointFile is the temp image file cw writes into.
func CheckpointFile(cw *CheckpointWriter) *os.File { return cw.f }

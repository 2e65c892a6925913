"""Binary checkpoint format for denoiser parameters.

Layout (all integers little-endian):

    bytes 0..3    magic b"GUDA"
    bytes 4..7    format version, uint32 (currently 1)
    bytes 8..11   length L of the architecture JSON, uint32
    next L bytes  architecture descriptor, UTF-8 JSON with sorted keys
    next 8 bytes  parameter count, uint64
    rest          parameters as float32

Loading rejects a wrong magic, an unsupported version, a parameter
count that disagrees with the architecture, and truncated payloads.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .denoiser import Architecture, DenoiserParams

MAGIC = b"GUDA"
FORMAT_VERSION = 1


def save_checkpoint(path: str | Path, params: DenoiserParams) -> None:
    arch_json = json.dumps(asdict(params.arch), sort_keys=True, separators=(",", ":"))
    arch_bytes = arch_json.encode("utf-8")
    payload = params.weights.astype("<f4").tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(arch_bytes)))
        f.write(arch_bytes)
        f.write(struct.pack("<Q", params.param_count))
        f.write(payload)


def load_checkpoint(path: str | Path) -> DenoiserParams:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    (arch_len,) = struct.unpack_from("<I", raw, 8)
    arch_end = 12 + arch_len
    if len(raw) < arch_end + 8:
        raise ValueError(f"{path}: truncated header")
    arch = Architecture(**json.loads(raw[12:arch_end].decode("utf-8")))
    (count,) = struct.unpack_from("<Q", raw, arch_end)
    if count != arch.param_count:
        raise ValueError(
            f"{path}: parameter count {count} does not match architecture "
            f"({arch.param_count})"
        )
    body = raw[arch_end + 8 :]
    if len(body) != 4 * count:
        raise ValueError(f"{path}: expected {4 * count} payload bytes, got {len(body)}")
    weights = np.frombuffer(body, dtype="<f4").astype(np.float64)
    return DenoiserParams(arch, weights)


def roundtrip_via_f32(params: DenoiserParams) -> DenoiserParams:
    """Parameters as they would read back from a checkpoint.

    A reference for the float32 projection that ``load_checkpoint``
    applies; the pipeline itself always scores models loaded from
    checkpoint files, so fresh and cache-resumed runs agree.
    """
    return params.with_weights(params.weights.astype("<f4").astype(np.float64))

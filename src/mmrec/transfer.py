"""Component-wise checkpoint serialization and the five transfer modes.

Checkpoint layout: magic, 8-byte little-endian manifest length, a JSON
manifest (format version, model config, group -> parameter -> shape),
the raw float64 payload in manifest order, and a trailing sha256 digest
over manifest + payload. Writing is fully deterministic, so identical
models produce byte-identical files.
"""

import hashlib
import itertools
import json
import math
import os
import threading
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from . import blas, data, objectives
from .encoders import ModelConfig
from .model import RecModel

MAGIC = b"MMRB0001"
FORMAT_VERSION = 1
INDEX_CHUNK = 256  # items encoded per forward in build_item_index
PREFIX_CHUNK = 256  # most prefixes encoded per forward in encode_prefixes

TRANSFER_MODES = ("full", "item_encoders", "user_encoder", "text_only", "vision_only")

# groups carried over from the bundle, per mode
LOADED_GROUPS = {
    "full": ("text_encoder", "vision_encoder", "fusion", "user_encoder", "nid_head"),
    "item_encoders": ("text_encoder", "vision_encoder", "fusion"),
    "user_encoder": ("user_encoder",),
    "text_only": ("text_encoder", "user_encoder"),
    "vision_only": ("vision_encoder", "user_encoder"),
}

MODE_MODALITY = {
    "full": "both",
    "item_encoders": "both",
    "user_encoder": "both",
    "text_only": "text",
    "vision_only": "vision",
}


class BundleError(ValueError):
    pass


def save_bundle(model, path):
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": model.cfg.to_dict(),
        "groups": {
            g: {p: list(t.shape) for p, t in sorted(model.groups[g].items())}
            for g in sorted(model.groups)
        },
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    payload = b"".join(
        np.ascontiguousarray(model.groups[g][p].data).tobytes()
        for g in sorted(model.groups)
        for p in sorted(model.groups[g])
    )
    digest = hashlib.sha256(mbytes + payload).digest()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(mbytes).to_bytes(8, "little"))
        f.write(mbytes)
        f.write(payload)
        f.write(digest)


def load_bundle(path):
    """Read and checksum-verify a bundle; returns (config dict, group arrays)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise BundleError(f"cannot read bundle {path}: {e}") from None
    if raw[: len(MAGIC)] != MAGIC:
        raise BundleError(f"{path}: not a checkpoint bundle (bad magic)")
    mlen = int.from_bytes(raw[8:16], "little")
    mbytes = raw[16 : 16 + mlen]
    digest = raw[-32:]
    payload = raw[16 + mlen : -32]
    if hashlib.sha256(mbytes + payload).digest() != digest:
        raise BundleError(f"{path}: checksum mismatch, file is corrupted")
    try:
        manifest = json.loads(mbytes)
    except ValueError:  # JSONDecodeError or UnicodeDecodeError
        manifest = None
    if not (isinstance(manifest, dict)
            and {"format_version", "config", "groups"} <= set(manifest)
            and isinstance(manifest["config"], dict)
            and isinstance(manifest["groups"], dict)
            and all(isinstance(g, dict) for g in manifest["groups"].values())):
        raise BundleError(f"{path}: manifest is not an object with "
                          "format_version, config and groups")
    if manifest["format_version"] != FORMAT_VERSION:
        raise BundleError(
            f"{path}: unsupported format version {manifest['format_version']}"
        )
    config = manifest["config"]
    config.pop("dropout", None)  # written by format 1, never applied
    unknown = set(config) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise BundleError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        ModelConfig(**config)
    except ValueError as e:
        raise BundleError(f"{path}: bad config: {e}") from None
    groups = {}
    offset = 0
    for g in sorted(manifest["groups"]):
        groups[g] = {}
        for p, shape in sorted(manifest["groups"][g].items()):
            if not (isinstance(shape, list)
                    and all(type(s) is int and s >= 0 for s in shape)):
                raise BundleError(f"{path}: shape of {g}.{p} is not a list of "
                                  f"non-negative integers: {shape!r}")
            n = math.prod(shape)
            if offset + n * 8 > len(payload):
                raise BundleError(f"{path}: payload shorter than the manifest says")
            arr = np.frombuffer(
                payload, dtype=np.float64, count=n, offset=offset
            ).reshape(shape).copy()
            offset += n * 8
            groups[g][p] = arr
    if offset != len(payload):
        raise BundleError(f"{path}: payload length does not match manifest")
    return config, groups


def load_components(path, mode, fresh_init_seed):
    """Build a model from a bundle according to the transfer mode.

    Groups the mode transfers are loaded; remaining required groups are
    freshly initialized from `fresh_init_seed`; groups the mode discards
    (e.g. vision/fusion under text_only) are absent from the model.
    """
    if mode not in TRANSFER_MODES:
        raise BundleError(f"unknown transfer mode {mode!r}")
    cfg_dict, groups = load_bundle(path)
    cfg_dict = dict(cfg_dict)
    cfg_dict["modality"] = MODE_MODALITY[mode]
    cfg = ModelConfig(**cfg_dict)
    model = RecModel.init(cfg, fresh_init_seed)
    for gname in LOADED_GROUPS[mode]:
        if gname not in groups:
            raise BundleError(f"bundle lacks required group {gname!r} for mode {mode!r}")
        _load_group(model.groups[gname], gname, groups[gname])
    return model


def model_from_bundle(path):
    """Reconstruct the exact saved model (all groups, saved modality)."""
    cfg_dict, groups = load_bundle(path)
    cfg = ModelConfig(**cfg_dict)
    model = RecModel.init(cfg, 0)
    if set(model.groups) != set(groups):
        raise BundleError(
            f"bundle groups {sorted(groups)} do not match modality "
            f"{cfg.modality!r} expecting {sorted(model.groups)}"
        )
    for gname, group in model.groups.items():
        _load_group(group, gname, groups[gname])
    return model


def _load_group(group, gname, arrays):
    """Copy a bundle group's arrays into the model group's parameters in place."""
    for pname, tensor in group.items():
        if pname not in arrays:
            raise BundleError(f"bundle group {gname!r} lacks parameter {pname!r}")
        arr = arrays[pname]
        if arr.shape != tensor.data.shape:
            raise BundleError(
                f"shape mismatch in {gname}.{pname}: bundle {arr.shape} "
                f"vs model {tensor.data.shape}"
            )
        tensor.data[...] = arr


# ---------------------------------------------------------------------------
# catalog scoring
# ---------------------------------------------------------------------------

class ItemIndex:
    """Cached per-item representations for full-catalog scoring.

    `reps` holds each item's representation. `projections` holds the user
    encoder's block-0 key and value projections of `reps`, without positions
    or biases (`encoders.first_block_projections`), so that the read path
    projects each item once and not at every occurrence; it is None for a
    user encoder without blocks. An index serves the model that built it.

    `rows` maps catalog ids to index rows through a table over
    [min id, max id] with -1 in each gap. The table is built only when its
    span is at most `reps.size`, so it never outgrows the representations;
    a catalog with sparser ids is mapped by `np.searchsorted` over the
    sorted ids instead."""

    def __init__(self, order, reps, projections):
        self.order = order  # catalog indices, sorted
        self.reps = reps  # (n_items, d)
        self.projections = projections  # (k, v), each (n_items, d), or None
        self.row_of = {c: r for r, c in enumerate(order)}  # for bench/ and tests
        self._sorted = np.asarray(order, dtype=np.int64)
        self._table = None
        if len(order) and order[-1] - order[0] < reps.size:
            self._table = np.full(order[-1] - order[0] + 1, -1, dtype=np.int64)
            self._table[self._sorted - order[0]] = np.arange(len(order))

    def rows(self, ids, kind):
        """The index rows of the catalog indices `ids`, in their shape; an id
        outside the catalog is a ValueError naming it as a `kind` item."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._table is None:
            rows = np.searchsorted(self._sorted, ids).clip(max=len(self._sorted) - 1)
            missing = self._sorted[rows] != ids
        else:
            offset = ids - self.order[0]
            # an offset outside the table is clipped onto an end, then flagged
            rows = self._table.take(offset, mode="clip")
            missing = (rows < 0) | (offset < 0) | (offset >= len(self._table))
        if missing.any():
            raise ValueError(f"{kind} item {int(ids[missing][0])!r} "
                             "is not in the catalog")
        return rows


def build_item_index(model, items):
    """Encode every catalog item once (no gradients) into a new index, with
    its block-0 projections."""
    if not items:
        raise ValueError("catalog is empty")
    order = sorted(items)
    # All that the index keeps is allocated before the encoders' scratch
    # arrays: glibc can keep freed memory resident below a later allocation.
    # One buffer holds reps, then block 0's (k, v) projections of them.
    table = np.empty((3, len(order), model.cfg.d))
    index = ItemIndex(order, table[0], None)  # projections written below
    with ad.no_grad():
        # an item's bits depend neither on its chunk, which never has one
        # row, nor on the padding width, which is always p_max
        for block in row_blocks(np.arange(len(order)), INDEX_CHUNK):
            ids, mask, patches = objectives.pack_item_features(
                items, [order[r] for r in block])
            width = ((0, 0), (0, max(model.cfg.p_max - ids.shape[1], 0)))
            emb = model.item_embeddings(np.pad(ids, width, constant_values=data.PAD_TOKEN),
                                        np.pad(mask, width), patches)
            table[0, block] = emb["e_cls"].data
    projections = model.first_block_projections(table[0], out=table[1:])
    table.flags.writeable = False  # shared by every user of the cached index
    index.reps = table[0]  # views taken after that are read-only too
    if projections is not None:
        index.projections = tuple(table[1:])
    return index


def item_index(model, items):
    """The model's index of the catalog `items`, built on first use and kept
    on the model (one entry). It is reused while `items` is the same object
    and the parameters hold the bytes it was built from, so no writer has to
    signal a change; a changed catalog must be a new object."""
    h = hashlib.sha256()
    for _, t in model.named_parameters():
        h.update(np.ascontiguousarray(t.data))
    digest = h.digest()
    cached = model.index_cache
    if cached is not None and cached[0] is items and cached[1] == digest:
        return cached[2]
    index = build_item_index(model, items)
    model.index_cache = (items, digest, index)
    return index


def encode_prefixes(model, prefixes, items, index, L_max):
    """Last-position user states for a list of non-empty prefix sequences,
    each cut to its last `L_max` items; (n, d). `items` is unused: the
    states read only `index` and the model's user encoder. An `L_max` below
    1 or above the model's, or an empty prefix, is a ValueError.

    The prefixes are grouped by their cut length, in a stable order, and
    each length is encoded without padding in the blocks of `row_blocks`,
    of at most `PREFIX_CHUNK` rows and never one. Block 0's keys and values
    are the index's per-item projections plus the position table's,
    gathered by row; their arrays are freed when a block returns, before
    the next one gathers its own. A state is then a function of its own
    prefix, whatever the other prefixes, their order or the block size."""
    if L_max > model.cfg.L_max:
        raise ValueError(f"L_max={L_max} exceeds the model's "
                         f"L_max={model.cfg.L_max}")
    if L_max < 1:
        raise ValueError(f"L_max={L_max} must be positive")
    full = np.fromiter(map(len, prefixes), dtype=np.int64, count=len(prefixes))
    if not full.all():
        raise ValueError(f"prefix {int(np.argmin(full))} is empty")
    ids = np.fromiter(itertools.chain.from_iterable(prefixes), dtype=np.int64,
                      count=int(full.sum()))
    lengths = np.minimum(full, L_max)
    if (full > L_max).any():  # drop the heads before their ids are mapped
        ids = ids[np.arange(len(ids)) >= np.repeat(np.cumsum(full) - lengths, full)]
    rows = index.rows(ids, "prefix")
    starts = np.cumsum(lengths) - lengths
    pos_part = model.first_block_projections()
    order = np.argsort(lengths, kind="stable")
    out = np.zeros((len(prefixes), model.cfg.d))

    def encode(block):
        block_rows = rows[starts[block][:, None] + np.arange(lengths[block[0]])]
        projections = None
        if index.projections is not None:
            projections = [table.take(block_rows, axis=0) for table in index.projections]
            for p, add in zip(projections, pos_part):
                p += add[: block_rows.shape[1]]
        out[block] = model.encode_sequence(
            ad.Tensor(index.reps.take(block_rows, axis=0)), None, last=True,
            projections=projections).data

    for_each_block(encode, [
        block for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1)
        for block in row_blocks(group, PREFIX_CHUNK)])
    return out


def row_blocks(rows, chunk):
    """The index array `rows` split in order into blocks of 2 to
    `max(chunk, 3)` rows, a lone row repeated; no block when `rows` is
    empty. A read-path product over a block then never has one row: NumPy
    computes that with gemv, which rounds differently from the GEMM that
    gives larger blocks the bits of one product over all rows."""
    if len(rows) == 1:
        rows = np.repeat(rows, 2)
    n_blocks = min(math.ceil(len(rows) / chunk), len(rows) // 2)
    return np.array_split(rows, n_blocks) if n_blocks else []


def _workers():
    """Threads that run read-path blocks: the usable cores divided by the
    loaded OpenBLAS's thread count, so that workers × BLAS threads stay
    within the cores, and at least one."""
    return max(1, len(os.sched_getaffinity(0)) // (blas.threads() or 1))


def for_each_block(fn, blocks):
    """Call `fn(block)` under `no_grad` for each of the sequence `blocks`
    (none of them None), on `_workers()` threads but never more threads
    than blocks: the caller and helper threads started for this call, each
    pulling the next block from one shared iterator. `fn` writes its
    results where no other block writes, so as a block's bits depend only
    on the block they are the same at any thread count. The first exception
    a block raises is raised here, after which no block starts; every
    helper has ended when the call returns. With one worker no thread is
    started."""
    pending = iter(blocks)
    lock = threading.Lock()
    failed = []

    def work():
        with ad.no_grad():
            try:
                while True:
                    with lock:
                        block = next(pending, None) if not failed else None
                    if block is None:
                        return
                    fn(block)
            except BaseException as e:  # raised in the caller below
                with lock:
                    failed.append(e)

    helpers = [threading.Thread(target=work, name="mmrec-blocks")
               for _ in range(min(_workers(), len(blocks)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if failed:
        raise failed[0]


def predict_scores(model, prefix, items):
    """Softmax distribution over the whole catalog for one prefix sequence,
    cut to the model's `L_max`."""
    if not prefix:
        raise ValueError("prefix must contain at least one item")
    if not items:
        raise ValueError("catalog is empty")
    index = item_index(model, items)
    states = encode_prefixes(model, [list(prefix)], items, index, model.cfg.L_max)
    (pair,) = row_blocks(np.zeros(1, dtype=np.int64), 2)
    logits = (states[pair] @ index.reps.T)[0]  # the row `capped_ranks` scores
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()

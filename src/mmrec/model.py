"""Model container: parameter groups, initialization, and batched forwards."""

import numpy as np

from . import encoders as enc
from .encoders import ModelConfig

NID_CLASSES = 3


class RecModel:
    """Parameter groups plus the forward passes they support.

    Groups present depend on the modality: "both" carries text_encoder,
    vision_encoder, fusion, user_encoder and nid_head; single-modality
    models drop the other encoder and the fusion block entirely.
    """

    def __init__(self, cfg: ModelConfig, groups):
        self.cfg = cfg
        self.groups = groups
        self.index_cache = None  # (catalog, digest, ItemIndex) of transfer.item_index

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int):
        rng = np.random.default_rng(seed)
        groups = {}
        d = cfg.d
        if cfg.modality in ("both", "text"):
            groups["text_encoder"] = enc.init_stack(
                rng, cfg, cfg.text_blocks, tok_emb=(cfg.vocab_size, d),
                pos=(cfg.p_max + 1, d), cls=(d,))
        if cfg.modality in ("both", "vision"):
            groups["vision_encoder"] = enc.init_stack(
                rng, cfg, cfg.vision_blocks, proj_w=(cfg.patch_dim, d),
                pos=(cfg.q + 1, d), cls=(d,))
            groups["vision_encoder"]["proj_b"] = enc._zeros((d,))
        if cfg.modality == "both":
            groups["fusion"] = enc.init_stack(rng, cfg, cfg.fusion_blocks, mm_cls=(d,))
        groups["user_encoder"] = enc.init_stack(rng, cfg, cfg.user_blocks,
                                                pos=(cfg.L_max, d))
        groups["nid_head"] = {
            "W": enc._gauss(rng, (d, NID_CLASSES)),
            "b": enc._zeros((NID_CLASSES,)),
        }
        return cls(cfg, groups)

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self):
        for gname, group in sorted(self.groups.items()):
            for pname, tensor in sorted(group.items()):
                yield f"{gname}.{pname}", tensor

    def trainable_parameters(self):
        return [(n, t) for n, t in self.named_parameters() if t.requires_grad]

    def zero_grad(self):
        for _, t in self.named_parameters():
            t.zero_grad()

    def set_trainable_top_blocks(self, k):
        """Freeze everything in the item encoders below their top-k blocks.

        k == "all" unfreezes everything. Embeddings, cls vectors and
        positional tables of the item encoders freeze together with the
        bottom blocks; fusion, user encoder and nid head stay trainable.
        """
        for gname in ("text_encoder", "vision_encoder"):
            group = self.groups.get(gname)
            if group is None:
                continue
            n_blocks = self.cfg.text_blocks if gname == "text_encoder" else self.cfg.vision_blocks
            if k == "all":
                cutoff = 0
            else:
                if not 1 <= k <= n_blocks:
                    raise ValueError(f"trainable_top_blocks={k} outside 1..{n_blocks}")
                cutoff = n_blocks - k
            for pname, tensor in group.items():
                if pname.startswith("b") and "." in pname:
                    idx = int(pname.split(".")[0][1:])
                    tensor.requires_grad = idx >= cutoff
                else:
                    tensor.requires_grad = cutoff == 0

    def snapshot(self):
        """Deep copy of all parameter arrays, keyed like named_parameters."""
        return {n: t.data.copy() for n, t in self.named_parameters()}

    def load_snapshot(self, snap):
        for n, t in self.named_parameters():
            t.data[...] = snap[n]

    # -- forwards -----------------------------------------------------------

    def encode_text(self, token_ids, pad_mask):
        return enc.encode_text(self.groups["text_encoder"], self.cfg, token_ids, pad_mask)

    def encode_vision(self, patches):
        return enc.encode_vision(self.groups["vision_encoder"], self.cfg, patches)

    def fuse(self, text_hiddens, vision_hiddens, text_mask):
        return enc.fuse(self.groups["fusion"], self.cfg, text_hiddens,
                        vision_hiddens, text_mask)

    def encode_sequence(self, item_reps, seq_mask, last=False, projections=None):
        return enc.encode_sequence(self.groups["user_encoder"], self.cfg,
                                   item_reps, seq_mask, last, projections)

    def first_block_projections(self, x=None, out=None):
        return enc.first_block_projections(self.groups["user_encoder"], self.cfg, x, out)

    def item_embeddings(self, token_ids, pad_mask, patches):
        """Encode a batch of items into their modality embeddings.

        Returns a dict with whichever of t_cls, v_cls, e_cls the modality
        supports; e_cls is the fused representation, and for single-modality
        models the sequence-level item representation is the modality cls.
        """
        out = {}
        if self.cfg.modality in ("both", "text"):
            t_cls, t_hid = self.encode_text(token_ids, pad_mask)
            out["t_cls"] = t_cls
        if self.cfg.modality in ("both", "vision"):
            v_cls, v_hid = self.encode_vision(patches)
            out["v_cls"] = v_cls
        if self.cfg.modality == "both":
            out["e_cls"] = self.fuse(t_hid, v_hid, pad_mask)
        elif self.cfg.modality == "text":
            out["e_cls"] = out["t_cls"]
        else:
            out["e_cls"] = out["v_cls"]
        return out

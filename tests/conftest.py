import dataclasses

from mmrec import autodiff as ad
from mmrec import objectives
from mmrec.model import RecModel

ACCEPTANCE_LINES = []


def encoded_context(model, batch, cfg=None):
    """`BatchContext(cfg, batch)` and the unique items' embeddings that
    `total_loss` would pass to the losses. The default config has nid and
    rcl off, so no corruption is drawn; tests of one loss reach that loss's
    own checks."""
    ctx = objectives.BatchContext(cfg or objectives.dap_only(), batch)
    return ctx, model.item_embeddings(*ctx.features)


def clone(model):
    """A model on copies of `model`'s configuration and parameter arrays,
    with the same trainable flags and an empty item-index cache."""
    return RecModel(dataclasses.replace(model.cfg), {
        gname: {pname: ad.Tensor(t.data.copy(), requires_grad=t.requires_grad)
                for pname, t in group.items()}
        for gname, group in model.groups.items()})


def with_l_max(model, L_max):
    """A clone of `model` whose user encoder keeps the first `L_max` rows of
    its position table, so it cuts every prefix to its last `L_max` items."""
    short = clone(model)
    short.cfg = dataclasses.replace(short.cfg, L_max=L_max)
    pos = short.groups["user_encoder"]["pos"]
    pos.data = pos.data[:L_max].copy()
    return short


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

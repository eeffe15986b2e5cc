"""Real numpy-GPT training with genuine dynamism signals.

The other examples drive the *distributed simulator*; this one runs
the actual numerical substrate end to end:

1. trains a small GPT with Adam on synthetic Zipfian token streams;
2. applies global magnitude pruning (Algorithm 1 over per-rank weight
   shards) to the real weights mid-training;
3. freezes layers whose parameter-update norms plateau
   (:class:`PlateauFreezer`, Egeria's criterion);
4. shows the loss keeps improving through both events.

Run:  python examples/pilot_training.py
"""

import numpy as np

from repro.dynamics import GlobalMagnitudePruner, PlateauFreezer
from repro.nn import GPT, Adam, softmax_cross_entropy
from repro.utils.rng import new_rng


def zipf_batch(rng, vocab, batch, seq):
    """Zipfian token stream (frequent tokens dominate, like text)."""
    ranks = np.arange(1, vocab + 1, dtype=float)
    p = (1.0 / ranks) / np.sum(1.0 / ranks)
    ids = rng.choice(vocab, size=(batch, seq + 1), p=p)
    return ids[:, :-1], ids[:, 1:]


def prune_model(gpt: GPT, sparsity: float, num_ranks: int = 4) -> float:
    """Algorithm 1 on the real weight matrices, sharded over ranks.

    Frozen layers are pruned too — magnitude pruning is orthogonal to
    freezing (a frozen weight can still be irrelevant)."""
    params = [p for p in gpt.parameters() if p.data.ndim == 2]
    flats = [p.data.reshape(-1) for p in params]
    all_w = np.concatenate(flats)
    shards = np.array_split(all_w, num_ranks)
    keeps = GlobalMagnitudePruner(num_ranks).prune(list(shards), sparsity)
    keep_flat = np.concatenate(keeps)
    offset = 0
    for p, flat in zip(params, flats):
        k = keep_flat[offset : offset + flat.size].reshape(p.data.shape)
        p.apply_mask(k)
        offset += flat.size
    return 1.0 - keep_flat.mean()


def main() -> None:
    rng = new_rng(0)
    vocab, batch, seq = 128, 8, 24
    gpt = GPT(vocab_size=vocab, hidden=48, num_layers=4, num_heads=4, max_seq=seq, seed=0)
    opt = Adam(gpt.parameters(), lr=2e-3)
    freezer = PlateauFreezer(len(gpt.blocks), threshold=0.01, patience=8)
    max_frozen = len(gpt.blocks) // 2  # tail keeps training (Egeria)

    print(f"params: {gpt.num_params():,}")
    for step in range(120):
        ids, targets = zipf_batch(rng, vocab, batch, seq)
        logits = gpt(ids)
        loss, dlogits = softmax_cross_entropy(logits, targets)
        gpt.zero_grad()
        gpt.backward(dlogits)

        # feed per-block update norms to the plateau freezer
        frozen_now = sum(b.is_frozen for b in gpt.blocks)
        for j, blk in enumerate(gpt.blocks):
            if not blk.is_frozen and frozen_now < max_frozen:
                norm = float(
                    np.sqrt(sum(np.sum(p.grad**2) for p in blk.parameters()))
                )
                if freezer.feed(j, norm):
                    blk.freeze()
                    frozen_now += 1
                    print(f"  step {step:>3}: froze block {j}")
        opt.step()

        if step == 60:
            achieved = prune_model(gpt, sparsity=0.5)
            print(
                f"  step {step:>3}: global prune -> {achieved:.0%} sparsity, "
                f"{gpt.num_active_params():,} active params"
            )
        if step % 20 == 0:
            print(f"step {step:>3}: loss {loss:.4f}")

    print(f"final sparsity: {gpt.sparsity():.1%}, "
          f"frozen blocks: {sum(b.is_frozen for b in gpt.blocks)}/{len(gpt.blocks)}")


if __name__ == "__main__":
    main()

"""Print the three-box numbers: extended probabilities, conditionals,
and which coarse grainings decohere."""
import numpy as np

from ephist import three_box_report


def main():
    rep = three_box_report()

    print("fine histories (box, readout), extended probabilities:")
    labels = [f"({b},{r})" for r in ("Phi", "~Phi") for b in "ABC"]
    for lab, p in zip(labels, rep.fine_eps):
        print(f"  {lab:>10}  {p:+.6f}")
    print(f"  fine dec measure: {rep.fine_dec:.6f}")

    print(f"\nPhi sector: p = {np.round(rep.sector_eps, 12)}, p(Phi) = {rep.p_phi:.6f}")
    print(f"conditionals given Phi: {np.round(rep.conditionals, 12)}")

    print("\ncoarse sets (merge the other two boxes):")
    for box in rep.coarse:
        mark = "decoherent" if box.decoherence.medium_decoherent else \
            f"NOT decoherent (max |D| = {box.decoherence.max_offdiagonal:.4f})"
        print(f"  {box.name}-set: conditional pair {np.round(box.conditional_pair, 12)}  [{mark}]")

    g = rep.greedy
    print(f"\ngreedy merge of the sector functional: classes {g.partition.classes}, "
          f"dec {g.dec:.2e}, succeeded={g.succeeded}")


if __name__ == "__main__":
    main()

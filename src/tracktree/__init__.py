"""Coset-labelled track systems and their dual trees over finite group windows.

The package builds, from a group, a subgroup and a base set of cosets, the
translate vertex family with its symmetric-difference metric, the nested
track system with its canonical labelling, and the dual tree carrying the
windowed group action; every structural claim is checked against
independent brute-force oracles.
"""

from .errors import TrackTreeError
from .groups import (
    GroupElement,
    GroupModel,
    SubgroupModel,
    compose,
    display_word,
    free_abelian_group,
    free_group,
    free_product_of_cyclics,
    invert,
    subgroup,
)
from .instances import (
    InstanceSpec,
    instance_to_text,
    load_instance,
    parse_instance_text,
)
from .oracles import (
    oracle_labelings,
    oracle_orientations,
    random_nested_family,
    tree_matches_oracle,
)
from .patterns import (
    TrackSystem,
    assign_labels,
    build_track_system,
    class_order,
    nestedness_check,
    square_analysis,
)
from .pipeline import RunResult, run_family, run_instance
from .reports import Report, dot_document, report_document
from .trees import (
    DualTree,
    act,
    build_tree,
    separation_witness,
    stabilizer_analysis,
)
from .windows import (
    BaseSetSpec,
    VertexFamily,
    Window,
    build_base_set,
    build_family,
    build_window,
    explicit_family,
    hypothesis_report,
    radius_stability_report,
)

__version__ = "0.1.0"

"""The library ships only the operations darter runs: a training step
records the embedding gather, the three fused kernels and the losses' sum;
the generic operations and the one-head decode path live under `tests/`
(`ops.py`, beside the composed reference), and nothing in `src/` reads
them. There is one loss function, one scorer, and no parameter that no
caller sets. The encoder hands on each layer's output tensor itself."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import darter
import darter.autodiff as ad
import darter.corpus as corpus
import darter.decoders as decoders
import darter.encoder as encoder
import darter.evaluation as evaluation
import darter.training as training
from darter import synthetic
from darter.autodiff import ParamStore, Record, constant
from darter.corpus import (LabelSchema, MatchMode, Vocabulary, gold_entities,
                           gold_relations, load_corpus)
from darter.encoder import encode_sequence, encode_stacked
from darter.model import JointModel, ModelConfig
from darter.training import TrainConfig, train

SRC = Path(darter.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _public_functions(module) -> set[str]:
    return {name for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__}


@pytest.mark.parametrize("variant", ["darter", "bidarter"])
def test_a_training_step_records_only_the_live_tags(monkeypatch, variant):
    """Every record that one epoch of bundled training runs backward over
    holds leaves, one take, the layers' dam_sequence nodes, the two heads'
    pair_scores nodes, two bce nodes and their add."""
    corpus_path, schema_path = synthetic.synthetic_paths()
    schema = LabelSchema.load(schema_path)
    sentences = load_corpus(corpus_path, schema, MatchMode.EXACT)
    model = JointModel(ModelConfig(variant=variant), schema,
                       Vocabulary.from_corpus(sentences))
    tags = []
    backward = ad.Record.backward

    def watched(record, loss):
        tags.append(sorted({node.tag for node in record.nodes}))
        return backward(record, loss)

    monkeypatch.setattr(ad.Record, "backward", watched)
    train(model, sentences, TrainConfig(lr=1e-3, epochs=1))
    assert len(tags) == len(sentences)
    assert all(step == ["add", "bce", "dam_sequence", "leaf", "pair_scores",
                        "take"] for step in tags)


def test_the_library_defines_only_the_live_operations():
    """darter.autodiff's public functions are the six Tensor operations
    (the five a training step records and affine_const) and the two non-op
    helpers; darter.decoders keeps one decode path, and darter.encoder
    runs a layer, traces one, or stacks them."""
    assert _public_functions(ad) == {
        "take", "add", "affine_const", "dam_sequence", "pair_heads", "bce",
        "constant", "aligned_rows"}
    assert _public_functions(decoders) == {
        "decode_streams", "threshold_predictions"}
    assert _public_functions(encoder) == {
        "encode_sequence", "trace_sequence", "encode_stacked"}
    assert not hasattr(encoder, "DamOutput")
    assert not hasattr(encoder, "Direction")
    assert not hasattr(encoder, "TraceStep")
    assert not hasattr(evaluation, "ErrorTaxonomy")
    assert "ErrorTaxonomy" not in darter.__all__
    assert "ErrorTaxonomy" not in evaluation.__all__


def _head_unpacking() -> list[str]:
    """The names `pair_heads` unpacks each head tuple into."""
    for node in ast.walk(ast.parse(inspect.getsource(ad.pair_heads))):
        if (isinstance(node, ast.For)
                and ast.unparse(node.iter) == "enumerate(heads)"):
            return [name.id for name in node.target.elts[1].elts]
    raise AssertionError("pair_heads no longer loops over enumerate(heads)")


def test_parameter_structs_list_their_kernel_arguments_in_order():
    """A layer's and a head's parameters are plain tuples that `*params`
    hands to their kernel. w_f, w_c and w_a share one shape, and so do the
    four cell biases, so a swapped field would pass every shape check."""
    required = inspect.Parameter.empty
    kernel = [name for name, default in _parameters(ad.dam_sequence)
              if default is required]
    assert kernel[0] == "x"
    assert encoder.DamParams._fields == tuple(kernel[1:])
    assert _head_unpacking() == ["coeffs", *decoders.DecoderParams._fields]


def test_the_trace_is_one_token_ordered_array_per_quantity():
    store = ParamStore(3)
    encoder.DamParams.register(store, "dam", 2, 4)
    params = encoder.DamParams.bind(store.bind(Record(recording=False)), "dam")
    x = constant(np.random.default_rng(4).standard_normal((5, 2)))
    for reverse in (False, True):
        trace = encoder.trace_sequence(x, params, reverse=reverse)
        assert list(trace) == ["z", "f", "ctil", "inter", "a", "h_tilde",
                               "c", "h"]
        assert all(type(value) is np.ndarray and value.shape == (5, 3, 4)
                   for value in trace.values())
        out = encode_sequence(x, params, reverse=reverse).values
        assert np.array_equal(trace["h_tilde"], out[:, 0])
        assert np.array_equal(trace["h"], out[:, 1])


def test_no_library_module_imports_the_test_references():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.level:           # from . import x: x is a module
                    names += [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("ops", "composed",
                                                  "tests"), (path.name, name)


def test_every_imported_name_is_used():
    """Each library module other than the package's re-exporting
    `__init__` reads every name it imports."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0]
                             for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert not unused


def test_no_library_module_imports_another_ones_private_names():
    """A darter module reads only the public names of the others, so a
    helper that two modules share is part of the library's surface."""
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "darter"):
                private += [f"{path.stem}: {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert not private


def _parameters(fn) -> list[tuple]:
    return [(p.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


def test_one_loss_function_and_no_parameter_without_a_caller():
    """`bce` is the only loss entry point, its shape errors are contract
    errors, and the constants no caller sets are not parameters."""
    required = inspect.Parameter.empty
    assert not hasattr(training, "bce_sum")
    assert _parameters(ad.bce) == [
        ("probs", required), ("gold", required), ("mask", None),
        ("weight", 1.0)]
    assert (inspect.signature(ad.bce).parameters["weight"].kind
            is inspect.Parameter.KEYWORD_ONLY)
    assert [name for name, _ in _parameters(training.sentence_loss)] == [
        "forward", "entity_gold", "relation_gold", "mask", "weights"]
    assert _parameters(ad.take) == [("a", required), ("indices", required)]
    assert tuple(TrainConfig.__dataclass_fields__) == (
        "lr", "epochs", "batch_size", "seed")
    assert _parameters(ad.pair_heads) == [("layers", required),
                                          ("heads", required)]
    assert _parameters(ad._pair_block) == [
        (name, required) for name in ("scaled", "inv", "bias", "lo", "hi")]
    assert _parameters(ad._pair_norm_stats) == [("sides", required)]
    assert _parameters(decoders._cells_above) == [("table", required)]
    assert _parameters(training.Adam.__init__) == [
        ("self", required), ("store", required), ("lr", required)]
    assert _parameters(training.Adam.step) == [("self", required),
                                               ("g", required)]
    assert _parameters(encode_stacked) == [
        ("x", required), ("layers", required), ("interaction", True)]
    assert _parameters(decoders.decode_streams) == [
        ("layers", required), ("ner_head", required), ("re_head", required),
        ("re_coeffs", required)]
    assert _parameters(encode_sequence) == [
        ("x", required), ("params", required), ("reverse", False),
        ("interaction", True)]
    assert _parameters(encoder.trace_sequence) == [
        ("x", required), ("params", required), ("reverse", False)]
    assert _parameters(training.grid_search) == [
        ("config", required), ("schema", required), ("vocab", required),
        ("train_sentences", required), ("dev_sentences", required),
        ("train_config", required),
        ("alphas", training.ALPHA_BETA_GRID),
        ("betas", training.ALPHA_BETA_GRID),
        ("gammas", training.GAMMA_DELTA_GRID),
        ("deltas", training.GAMMA_DELTA_GRID)]
    assert issubclass(ad.ShapeError, ad.ContractError)


def test_one_scorer_and_gold_sets_take_their_mode():
    """`evaluate_corpus` is the only scorer (a sentence's scores come from
    a one-sentence corpus), and the gold triples' mode is always given."""
    assert _public_functions(evaluation) == {"evaluate_corpus"}
    required = inspect.Parameter.empty
    for fn in (gold_entities, gold_relations):
        assert _parameters(fn) == [("sentence", required),
                                   ("schema", required), ("mode", required)]


def _modules_with_all() -> list[str]:
    names = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "__all__"
                       for target in node.targets)
               for node in tree.body):
            names.append("darter" if path.stem == "__init__"
                         else f"darter.{path.stem}")
    return names


@pytest.mark.parametrize("name", _modules_with_all())
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__
               if not hasattr(module, entry)]
    assert not missing, (name, missing)


def test_each_removed_duplicate_stays_removed():
    """An unrecorded binding is `bind` on a record that does not record,
    `read_text` opens its own input, `_prepare` returns a tuple, the
    encoder calls `dam_sequence` itself, a grid result and its points dump
    with `asdict`, the model derives the relation head's coefficients from
    its checked config, a cell's widths are its weights' shapes, and
    `python -m darter` is the one entry stub."""
    assert not hasattr(ParamStore, "untracked")
    assert "__contains__" not in vars(ParamStore)
    assert not hasattr(corpus, "open_input")
    assert "open_input" not in corpus.__all__
    assert not hasattr(training, "_Prepared")
    assert not hasattr(encoder, "_layer")
    assert not hasattr(training.GridPoint, "to_json")
    assert not hasattr(training.GridSearchResult, "to_json")
    assert not hasattr(decoders, "relation_coefficients")
    assert not hasattr(encoder.DamParams, "d_in")
    assert not hasattr(encoder.DamParams, "d_h")
    assert "__main__" not in (SRC / "cli.py").read_text(encoding="utf-8")


def _references(tree) -> Counter:
    """How often each name is read in `tree`, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_function_the_library_defines_has_a_reader():
    """Each function and method that `src/` defines by name, dunders
    aside, is read somewhere in the library, the tests, the benchmark or
    the demos outside its own body."""
    files = [path for folder in ("src", "tests", "perfbench", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in files}
    reads = sum((_references(tree) for tree in trees.values()), Counter())
    unread = [f"{path.stem}.{node.name}"
              for path, tree in trees.items() if SRC in path.parents
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))
              and reads[node.name] == _references(node)[node.name]]
    assert not unread

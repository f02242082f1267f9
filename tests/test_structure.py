"""Structure guards: rules about where code lives, read off the source.

``IntMatrix`` stores each entry twice, in ``rows`` and in ``cols``, and
only ``linalg`` keeps the two in step; every other module builds a
matrix through its constructors and reads it.  These tests parse the
package's modules and fail on a write to either dict outside
``linalg``, or on a name bound to one of them (an alias to write
through).

Faces are listed in one place, ``complexes.FaceRecord``: the guard below
fails on any use of ``iter_submasks`` or ``full_skeleton_size`` outside
that class.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momentangle"
STORAGE = {"rows", "cols"}
MUTATORS = {"setdefault", "pop", "popitem", "update", "clear", "__setitem__",
            "__delitem__"}


def storage_base(node):
    """The ``x.rows`` / ``x.cols`` attribute that a target or receiver
    ``node`` writes through (``x.rows``, ``x.rows[r]``, ``x.rows[r][c]``),
    or None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        # x.rows.setdefault(r, {})[c] = v writes through the setdefault
        return storage_base(node.func.value)
    if isinstance(node, ast.Attribute) and node.attr in STORAGE:
        return node
    return None


def storage_writes(tree):
    """Line numbers of every write to a ``rows`` or ``cols`` dict."""
    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            # rows, cols = m.rows, m.cols binds aliases to write through
            values = (node.value.elts if isinstance(node.value, ast.Tuple)
                      else [node.value])
            if any(isinstance(value, ast.Attribute) and value.attr in STORAGE
                   for value in values):
                lines.append(node.lineno)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            targets = [node.func.value]
        for target in targets:
            for part in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                if storage_base(part) is not None:
                    lines.append(node.lineno)
    return sorted(set(lines))


def test_only_linalg_writes_matrix_storage():
    writes = {path.stem: storage_writes(ast.parse(path.read_text("utf-8")))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert writes.pop("linalg")  # the guard sees linalg's own writes
    assert {stem: lines for stem, lines in writes.items() if lines} == {}


def test_the_guard_sees_every_kind_of_write():
    source = """
m.rows = {}
m.cols, other = {}, 1
m.rows[r] = row
m.rows[r][c] = v
m.rows.setdefault(r, {})[c] = v
m.cols.pop(c)
del m.rows[r]
m.cols[c] |= more
rows, cols = m.rows, m.cols
x = m.rows[r][c]
m.rows.get(r, {})
"""
    assert storage_writes(ast.parse(source)) == [2, 3, 4, 5, 6, 7, 8, 9, 10]


# a second face walk outside the record would be a second copy of its
# listing
RECORD = "FaceRecord"
FACE_WALKS = {"iter_submasks", "full_skeleton_size"}


def face_walks(tree, record=RECORD):
    """Line numbers of every use (a call, or a name bound to it) of
    ``iter_submasks`` or ``full_skeleton_size`` outside the class
    ``record``."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == record:
            inside.update(map(id, ast.walk(node)))
    return sorted({node.lineno for node in ast.walk(tree)
                   if id(node) not in inside and (
                       isinstance(node, ast.Name) and node.id in FACE_WALKS
                       or isinstance(node, ast.Attribute)
                       and node.attr in FACE_WALKS)})


def test_only_the_record_walks_faces():
    trees = {path.stem: ast.parse(path.read_text("utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    # the guard sees the record's own walks
    assert face_walks(trees["complexes"], record=None)
    walks = {stem: face_walks(tree) for stem, tree in trees.items()}
    assert {stem: lines for stem, lines in walks.items() if lines} == {}


def test_the_guard_sees_every_face_walk():
    source = """
class FaceRecord:
    def listing(self):
        return iter_submasks(self.support)
faces = set(iter_submasks(mask))
k = complexes.full_skeleton_size(order, support)
walk = iter_submasks
counts = list(map(full_skeleton_size, orders, supports))
def iter_submasks(mask):
    return mask
"""
    assert face_walks(ast.parse(source)) == [5, 6, 7, 8]
    assert face_walks(ast.parse(source), record=None) == [4, 5, 6, 7, 8]

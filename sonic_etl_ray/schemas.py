"""Arrow schemas and schema-evolution rules for the CDC engine.

The reference pins one schema per output table in three parallel formats
(``schemas/proto/*.proto``, ``schemas/bq/*.json``, ``schemas/avro/*``) and
evolves them manually by appending nullable columns
(``schemas/proto/blocks.proto:144-145`` reserved-field pattern). Here each
logical table is one ``pyarrow.Schema`` constant, and evolution is automatic:
column-add (new columns arrive nullable) and type-widen (int32→int64,
float32→float64) via :func:`unify_schemas` at the merge sink.
"""

from __future__ import annotations

import pyarrow as pa

OPS = ("insert", "update", "delete")

# The change-event stream (input_hint shape + CDC envelope).
# ``lsn`` is the dense monotone logical sequence number — the block_number
# analog (reference: ``schemas/proto/request.proto`` start/end ranges).
CHANGE_EVENT_SCHEMA = pa.schema(
    [
        pa.field("lsn", pa.int64(), nullable=False),
        pa.field("op", pa.string(), nullable=False),
        pa.field("repo", pa.string(), nullable=False),
        pa.field("path", pa.string(), nullable=False),
        pa.field("commit", pa.string()),
        pa.field("lang", pa.string()),
        pa.field("content", pa.string()),  # null for deletes
    ]
)

# Core (non-evolved) lake-state schema. Derived columns mirror the
# reference's count/derived fields on the block row
# (``transformation/common.rs:30-130``): content_sha256 is the per-row
# verification invariant (BASELINE.json input_hint), size_bytes the checked
# i64 narrowing analog (``transformation/bq/integer.rs:64-152``).
STATE_SCHEMA = pa.schema(
    [
        pa.field("repo", pa.string(), nullable=False),
        pa.field("path", pa.string(), nullable=False),
        pa.field("commit", pa.string()),
        pa.field("lang", pa.string()),
        pa.field("content", pa.string()),
        pa.field("content_sha256", pa.string()),
        pa.field("size_bytes", pa.int64()),
        pa.field("applied_lsn", pa.int64(), nullable=False),
        # tombstone marker: deletes stay in partition state (filtered out of
        # reads) so a replayed or backfilled update with a lower LSN can
        # never resurrect a deleted key — per-key LWW needs the delete's LSN
        pa.field("deleted", pa.bool_(), nullable=False),
    ]
)

# Hex-digest columns (sha256 of content, git commit id): near-random hex
# text, stored with zstd whatever the configured codec (config.py).
DIGEST_COLUMNS = ("content_sha256", "commit")

STATE_KEY = ("repo", "path")
STATE_SORT = [("repo", "ascending"), ("path", "ascending")]

# Columns of the change event that are CDC envelope, not payload.
ENVELOPE_COLUMNS = ("lsn", "op")

_WIDEN: dict[tuple[str, str], pa.DataType] = {
    ("int8", "int16"): pa.int16(),
    ("int8", "int32"): pa.int32(),
    ("int16", "int32"): pa.int32(),
    ("int8", "int64"): pa.int64(),
    ("int16", "int64"): pa.int64(),
    ("int32", "int64"): pa.int64(),
    ("uint8", "uint16"): pa.uint16(),
    ("uint16", "uint32"): pa.uint32(),
    ("uint32", "uint64"): pa.uint64(),
    ("float", "double"): pa.float64(),
    ("halffloat", "float"): pa.float32(),
    ("halffloat", "double"): pa.float64(),
}


def widen_type(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Least common widened type for two column types, or raise.

    Supports the north-rule evolution cases: identical types, integer
    widening, float widening, and int→float is rejected (lossy above 2^53 —
    the engine treats it as an error, mirroring the reference's
    checked-narrowing-as-error discipline, ``transformation/bq/integer.rs``).

    NESTED types unify recursively (the reference's REPEATED RECORD columns,
    ``schemas/bq/traces.json`` action/result, ``blocks.proto`` withdrawals):
    list value types widen; struct fields widen by name, and a field present
    on only one side is kept nullable — struct field ADD is the nested
    column-add analog.
    """
    if a.equals(b):
        return a
    if pa.types.is_list(a) and pa.types.is_list(b):
        return pa.list_(widen_type(a.value_type, b.value_type))
    if pa.types.is_large_list(a) and pa.types.is_large_list(b):
        return pa.large_list(widen_type(a.value_type, b.value_type))
    if pa.types.is_struct(a) and pa.types.is_struct(b):
        b_by_name = {f.name: f for f in b}
        a_names = {f.name for f in a}
        fields = [
            pa.field(
                f.name,
                widen_type(f.type, b_by_name[f.name].type) if f.name in b_by_name else f.type,
                nullable=True,
            )
            for f in a
        ]
        fields += [pa.field(f.name, f.type, nullable=True) for f in b if f.name not in a_names]
        return pa.struct(fields)
    for x, y in ((a, b), (b, a)):
        t = _WIDEN.get((str(x), str(y)))
        if t is not None:
            return t
    raise TypeError(f"cannot unify column types {a} and {b}")


def unify_schemas(old: pa.Schema, new: pa.Schema) -> pa.Schema:
    """Unify a sink schema with an incoming batch schema.

    Rules (north rule "schema evolution: column add / type widen"):
    - columns present in both: types widened via :func:`widen_type`;
    - columns only in ``old``: kept (become null for new rows);
    - columns only in ``new``: appended nullable (become null for old rows).
    Column order: ``old`` order, then new columns in their ``new`` order.
    """
    fields: list[pa.Field] = []
    new_names = set(new.names)
    for f in old:
        if f.name in new_names:
            nf = new.field(f.name)
            fields.append(pa.field(f.name, widen_type(f.type, nf.type), nullable=f.nullable or nf.nullable))
        else:
            fields.append(pa.field(f.name, f.type, nullable=True))
    old_names = set(old.names)
    for f in new:
        if f.name not in old_names:
            fields.append(pa.field(f.name, f.type, nullable=True))
    return pa.schema(fields)


def conform_table(tbl: pa.Table, schema: pa.Schema) -> pa.Table:
    """Cast/extend a table to ``schema``: missing columns become nulls,
    present columns are cast (safe) to the target type, column order fixed.
    Nested targets Arrow cannot cast directly (struct field ADD, incl.
    inside lists) are rebuilt recursively via :func:`conform_array`."""
    n = tbl.num_rows
    cols = []
    for f in schema:
        if f.name in tbl.column_names:
            col = tbl.column(f.name)
            if not col.type.equals(f.type):
                col = conform_array(col, f.type)
        else:
            col = pa.nulls(n, f.type)
        cols.append(col)
    return pa.Table.from_arrays(cols, schema=schema)


def conform_array(col: pa.ChunkedArray | pa.Array, typ: pa.DataType) -> pa.ChunkedArray | pa.Array:
    """Cast an array to ``typ``; when Arrow's cast refuses a nested target
    (adding a struct field), rebuild the array recursively: present struct
    children conform, absent ones become nulls, list offsets are reused."""
    if col.type.equals(typ):
        return col
    try:
        return col.cast(typ)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        pass
    if isinstance(col, pa.ChunkedArray):
        return pa.chunked_array(
            [_conform_chunk(c, typ) for c in col.chunks] or [_conform_chunk(pa.nulls(0, col.type), typ)],
            typ,
        )
    return _conform_chunk(col, typ)


def _conform_chunk(arr: pa.Array, typ: pa.DataType) -> pa.Array:
    import pyarrow.compute as pc

    if arr.type.equals(typ):
        return arr
    if pa.types.is_struct(typ) and pa.types.is_struct(arr.type):
        present = {f.name for f in arr.type}
        children = []
        for f in typ:
            if f.name in present:
                children.append(_conform_chunk(arr.field(f.name), f.type))
            else:
                children.append(pa.nulls(len(arr), f.type))
        return pa.StructArray.from_arrays(
            children, fields=list(typ),
            mask=pc.is_null(arr) if arr.null_count else None,
        )
    if (pa.types.is_list(typ) and pa.types.is_list(arr.type)) or (
        pa.types.is_large_list(typ) and pa.types.is_large_list(arr.type)
    ):
        arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
        values = _conform_chunk(arr.values, typ.value_type)
        cls = pa.LargeListArray if pa.types.is_large_list(typ) else pa.ListArray
        # offsets of null entries may be masked — rebuild them dense, then
        # reapply the validity bitmap via the mask argument
        offsets = pc.fill_null(arr.offsets, 0) if arr.offsets.null_count else arr.offsets
        return cls.from_arrays(
            offsets, values, mask=pc.is_null(arr) if arr.null_count else None
        )
    return arr.cast(typ)  # scalar fallback — raises with Arrow's message

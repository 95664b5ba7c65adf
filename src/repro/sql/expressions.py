"""Expression compiler.

Expressions compile once (at prepare time) into Python closures over
``(row, ctx)`` where ``row`` is the current operator's tuple and ``ctx`` is
the ``ExecContext`` (parameters, transaction, stats, subquery runner).
Column references are resolved to tuple positions against an operator
``Schema`` at compile time, so per-row evaluation does no name lookups.

NULL semantics: comparisons and arithmetic involving NULL yield NULL, which
is falsy in predicate position; ``IS [NOT] NULL`` tests directly.
"""

from __future__ import annotations

from inspect import signature

from repro.errors import BindError, ExecutionError
from repro.sql import ast
from repro.sql.functions import SCALARS, like_to_predicate, sql_mod
from repro.sql.result import Batch


class Schema:
    """Column layout of one operator's output rows.

    A schema is an ordered list of ``(binding, column_name)`` pairs, both
    upper-cased; ``binding`` is the table alias (or a synthetic marker such
    as ``None`` for computed columns).
    """

    def __init__(self, entries: list[tuple[str | None, str]]):
        self.entries = [
            (binding.upper() if binding else None, name.upper())
            for binding, name in entries
        ]

    def __len__(self):
        return len(self.entries)

    def __add__(self, other: "Schema") -> "Schema":
        merged = Schema([])
        merged.entries = self.entries + other.entries
        return merged

    def resolve(self, table: str | None, name: str) -> int:
        """Position of column ``table.name``; raises BindError if not unique."""
        wanted_table = table.upper() if table else None
        wanted_name = name.upper()
        matches = [
            i for i, (binding, col) in enumerate(self.entries)
            if col == wanted_name and (wanted_table is None or binding == wanted_table)
        ]
        if not matches:
            label = f"{table}.{name}" if table else name
            raise BindError(f"unknown column {label!r}")
        if len(matches) > 1:
            label = f"{table}.{name}" if table else name
            raise BindError(f"ambiguous column {label!r}")
        return matches[0]

    def try_resolve(self, table: str | None, name: str) -> int | None:
        try:
            return self.resolve(table, name)
        except BindError:
            return None

    def binds(self, table: str | None, name: str) -> bool:
        return self.try_resolve(table, name) is not None


def _null_safe_binop(op: str):
    if op == "+":
        return lambda a, b: None if a is None or b is None else a + b
    if op == "-":
        return lambda a, b: None if a is None or b is None else a - b
    if op == "*":
        return lambda a, b: None if a is None or b is None else a * b
    if op == "/":
        def divide(a, b):
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError("division by zero")
            return a / b
        return divide
    if op == "%":
        return sql_mod
    if op == "||":
        return lambda a, b: None if a is None or b is None else str(a) + str(b)
    if op == "=":
        return lambda a, b: None if a is None or b is None else a == b
    if op == "<>":
        return lambda a, b: None if a is None or b is None else a != b
    if op == "<":
        return lambda a, b: None if a is None or b is None else a < b
    if op == "<=":
        return lambda a, b: None if a is None or b is None else a <= b
    if op == ">":
        return lambda a, b: None if a is None or b is None else a > b
    if op == ">=":
        return lambda a, b: None if a is None or b is None else a >= b
    raise ExecutionError(f"unknown binary operator {op!r}")


def column_fn(position: int):
    """``fn(row, ctx) -> row[position]``, tagged with its ``position`` so a
    batch operator can slice the column instead of calling per row."""
    def column(row, ctx):
        return row[position]
    column.position = position
    return column


def eval_column(fn, rows, ctx):
    """``fn`` over a batch, one value per row.

    ``rows`` is a list of row tuples (row pipeline) or a column-major
    ``Batch`` (vector pipeline).  A plain column (``column_fn``) is one
    slice of the row list, or the batch's own column object — zero-copy,
    still encoded or lazily gathered; any other closure runs once per row.
    """
    position = getattr(fn, "position", None)
    if isinstance(rows, Batch):
        if position is not None:
            return rows.columns[position]
        rows = rows.rows()
    elif position is not None:
        return [row[position] for row in rows]
    return [fn(row, ctx) for row in rows]


def compile_expr(expr: ast.Expr, schema: Schema, plan_subquery=None):
    """Compile ``expr`` to ``fn(row, ctx) -> value``.

    ``plan_subquery`` is a callback ``(Select) -> PlanNode`` supplied by the
    planner so subqueries are planned at prepare time.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, ctx: value

    if isinstance(expr, ast.Param):
        index = expr.index
        def read_param(row, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise ExecutionError(
                    f"statement expects parameter {index + 1} but only "
                    f"{len(ctx.params)} were bound"
                ) from None
        return read_param

    if isinstance(expr, ast.ColumnRef):
        return column_fn(schema.resolve(expr.table, expr.name))

    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            left = compile_expr(expr.left, schema, plan_subquery)
            right = compile_expr(expr.right, schema, plan_subquery)
            return lambda row, ctx: bool(left(row, ctx)) and bool(right(row, ctx))
        if expr.op == "OR":
            left = compile_expr(expr.left, schema, plan_subquery)
            right = compile_expr(expr.right, schema, plan_subquery)
            return lambda row, ctx: bool(left(row, ctx)) or bool(right(row, ctx))
        left = compile_expr(expr.left, schema, plan_subquery)
        right = compile_expr(expr.right, schema, plan_subquery)
        op_fn = _null_safe_binop(expr.op)
        return lambda row, ctx: op_fn(left(row, ctx), right(row, ctx))

    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, schema, plan_subquery)
        if expr.op == "NOT":
            return lambda row, ctx: not bool(operand(row, ctx))
        if expr.op == "-":
            return lambda row, ctx: (
                None if (v := operand(row, ctx)) is None else -v
            )
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, schema, plan_subquery)
        if expr.negated:
            return lambda row, ctx: operand(row, ctx) is not None
        return lambda row, ctx: operand(row, ctx) is None

    if isinstance(expr, ast.Like):
        operand = compile_expr(expr.operand, schema, plan_subquery)
        if isinstance(expr.pattern, ast.Literal):
            matcher = like_to_predicate(str(expr.pattern.value))
            if expr.negated:
                return lambda row, ctx: not matcher(operand(row, ctx))
            return lambda row, ctx: matcher(operand(row, ctx))
        pattern = compile_expr(expr.pattern, schema, plan_subquery)
        negated = expr.negated

        def dynamic_like(row, ctx):
            text = pattern(row, ctx)
            if text is None:
                return False
            outcome = like_to_predicate(str(text))(operand(row, ctx))
            return (not outcome) if negated else outcome
        return dynamic_like

    if isinstance(expr, ast.Between):
        operand = compile_expr(expr.operand, schema, plan_subquery)
        low = compile_expr(expr.low, schema, plan_subquery)
        high = compile_expr(expr.high, schema, plan_subquery)
        negated = expr.negated

        def between(row, ctx):
            value = operand(row, ctx)
            lo = low(row, ctx)
            hi = high(row, ctx)
            if value is None or lo is None or hi is None:
                return False
            outcome = lo <= value <= hi
            return (not outcome) if negated else outcome
        return between

    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, schema, plan_subquery)
        items = [compile_expr(item, schema, plan_subquery) for item in expr.items]
        negated = expr.negated

        def in_list(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return False
            outcome = any(value == item(row, ctx) for item in items)
            return (not outcome) if negated else outcome
        return in_list

    if isinstance(expr, ast.InSubquery):
        if plan_subquery is None:
            raise BindError("subqueries are not allowed in this context")
        operand = compile_expr(expr.operand, schema, plan_subquery)
        subplan = plan_subquery(expr.subquery)
        negated = expr.negated

        def in_subquery(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return False
            values = ctx.subquery_values(subplan)
            outcome = value in values
            return (not outcome) if negated else outcome
        return in_subquery

    if isinstance(expr, ast.ExistsSubquery):
        if plan_subquery is None:
            raise BindError("subqueries are not allowed in this context")
        subplan = plan_subquery(expr.subquery)
        negated = expr.negated

        def exists(row, ctx):
            outcome = bool(ctx.subquery_values(subplan))
            return (not outcome) if negated else outcome
        return exists

    if isinstance(expr, ast.ScalarSubquery):
        if plan_subquery is None:
            raise BindError("subqueries are not allowed in this context")
        subplan = plan_subquery(expr.subquery)

        def scalar(row, ctx):
            return ctx.subquery_scalar(subplan)
        return scalar

    if isinstance(expr, ast.CaseWhen):
        branches = [
            (compile_expr(cond, schema, plan_subquery),
             compile_expr(result, schema, plan_subquery))
            for cond, result in expr.branches
        ]
        default = (compile_expr(expr.default, schema, plan_subquery)
                   if expr.default is not None else None)

        def case(row, ctx):
            for cond, result in branches:
                if cond(row, ctx):
                    return result(row, ctx)
            return default(row, ctx) if default is not None else None
        return case

    if isinstance(expr, ast.FuncCall):
        if expr.name in ast.AGGREGATE_FUNCTIONS:
            raise BindError(
                f"aggregate {expr.name} used outside aggregation context"
            )
        fn = SCALARS.get(expr.name)
        if fn is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        try:
            signature(fn).bind(*expr.args)
        except TypeError:
            raise BindError(f"wrong number of arguments to {expr.name}: "
                            f"{len(expr.args)}") from None
        args = [compile_expr(arg, schema, plan_subquery) for arg in expr.args]
        return lambda row, ctx: fn(*(arg(row, ctx) for arg in args))

    if isinstance(expr, ast.Star):
        raise BindError("* is only valid in SELECT lists and COUNT(*)")

    raise ExecutionError(f"cannot compile expression {expr!r}")


def expr_display_name(expr: ast.Expr) -> str:
    """Human-readable column header for an unaliased select item."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name.upper()
    if isinstance(expr, ast.FuncCall):
        inner = ", ".join(expr_display_name(a) for a in expr.args) or ""
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.Star):
        return "*"
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    return expr.__class__.__name__.upper()


def collect_column_refs(expr: ast.Expr) -> list[ast.ColumnRef]:
    """All column references in ``expr`` (excluding subquery bodies)."""
    refs: list[ast.ColumnRef] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ColumnRef):
            refs.append(node)
        else:
            stack.extend(ast.children(node))
    return refs

"""``marching.rhs`` of a field on the state axis its scheme reads, the
axis that an SSP-RK3 stage builds for it."""

from shockstab import fields, marching


def residual(field, scheme):
    return marching.rhs(field, fields.apply_boundaries(field, scheme.space == "primitive"), scheme)

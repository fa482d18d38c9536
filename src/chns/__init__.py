"""Fully decoupled, unconditionally energy-stable time steppers for the
coupled phase-field / incompressible-flow system on a MAC staggered grid.

Subpackage map:

    grid         grid, field containers, discrete operators, snapshot files
    elliptic     constant-coefficient transform solves: the step's pieces, the projection
    model        parameters, potential, scheme states, initial data
    first_order  the decoupled step both orders share, and the backward-Euler stepper
    second_order BDF2 levels over the shared step, rotational pressure, bootstrap
    diagnostics  one energy audit for both laws, the Cauchy ladder, rate tables, CSV
    cli          batch front end (simulate / converge / audit)

The package binds no names: import each from the module that defines it.
"""

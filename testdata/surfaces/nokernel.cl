// Fixture for TestSurfaces: a valid translation unit with no __kernel.
float twice(float x) {
    return 2.0f * x;
}
